// Wall-clock benchmark program. Builds one workload's inputs from the seed and
// sizes on its command line, sets the system up through core::System, runs
// closed-loop clients through System::Query for a fixed time, checks every
// answer with the benchmark's own computation (checker.h), and prints one
// JSON object as its last line of standard output.
//
//   eeb_perfbench --workload NAME --seed S --seconds T --trace 0|1
//     --data-seed D --n N --dim D --ndom V --beta B --pool P --history H
//     --stream L --k K --populations R --clients C --cache-bytes B
//     --lru 0|1 --warmup-queries W --recall-sample Q --bound-sample Q --dir DIR
//     [--spans-out FILE]
//
// Every option is required: no size, seed or budget comes from a default or
// from the environment. One run measures R query populations over the same
// dataset, one after another, each with its own Zipf query log, its own
// set-up and T/R seconds (at least 1000 queries) of closed-loop queries. A
// single Zipf log puts most of the traffic on a few dozen popular queries,
// so one population's cost swings with which points those happen to be; R
// of them average that out.
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs each population
// through a KnnEngine built over the tracing decorators of tracing.h, after
// an untraced phase of the same length, and reports the per-layer metrics.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checker.h"
#include "core/knn_engine.h"
#include "core/system.h"
#include "core/workload.h"
#include "obs/metrics.h"
#include "storage/point_file.h"
#include "tracing.h"
#include "workload/generator.h"
#include "workload/registry.h"

namespace perfbench {
namespace {

using eeb::Dataset;
using eeb::PointId;
using eeb::Scalar;
using eeb::Status;
using eeb::core::QueryResult;
using eeb::core::System;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

void Check(const Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

struct Config {
  std::string workload;
  uint64_t seed = 0, data_seed = 0;
  double seconds = 0;
  bool trace = false;
  size_t n = 0, dim = 0, pool = 0, history = 0, stream = 0, k = 0;
  uint32_t ndom = 0, beta = 0;
  size_t populations = 0, clients = 0, cache_bytes = 0, warmup_queries = 0;
  size_t recall_sample = 0, bound_sample = 0;
  bool lru = false;
  std::string dir, spans_out;
};

Config ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      Die("expected --name value pairs, got '" + key + "'");
    }
    kv[key.substr(2)] = argv[i + 1];
  }
  auto str = [&](const char* name) {
    auto it = kv.find(name);
    if (it == kv.end()) Die(std::string("missing --") + name);
    std::string v = it->second;
    kv.erase(it);
    return v;
  };
  auto num = [&](const char* name) {
    const std::string v = str(name);
    char* end = nullptr;
    const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || x > (1ull << 40)) {
      Die(std::string("bad --") + name);
    }
    return static_cast<size_t>(x);
  };
  Config c;
  c.workload = str("workload");
  c.seed = num("seed");
  c.seconds = static_cast<double>(num("seconds"));
  c.trace = num("trace") != 0;
  c.data_seed = num("data-seed");
  c.n = num("n");
  c.dim = num("dim");
  c.ndom = static_cast<uint32_t>(num("ndom"));
  c.beta = static_cast<uint32_t>(num("beta"));
  c.pool = num("pool");
  c.history = num("history");
  c.stream = num("stream");
  c.k = num("k");
  c.populations = num("populations");
  c.clients = num("clients");
  c.cache_bytes = num("cache-bytes");
  c.lru = num("lru") != 0;
  c.warmup_queries = num("warmup-queries");
  c.recall_sample = num("recall-sample");
  c.bound_sample = num("bound-sample");
  c.dir = str("dir");
  if (c.trace) c.spans_out = str("spans-out");
  if (!kv.empty()) Die("unknown option --" + kv.begin()->first);
  if (c.n == 0 || c.dim == 0 || c.k == 0 || c.clients == 0 ||
      c.populations == 0 || c.stream == 0 || c.pool == 0 || c.seconds <= 0 ||
      c.recall_sample == 0 || c.bound_sample == 0) {
    Die("sizes, counts and --seconds must be positive");
  }
  return c;
}

// SplitMix64: derives independent generator seeds from the one run seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull +
               0x94D049BB133111EBull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double ProcStatusMiB(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double Seconds(int64_t since_ns) {
  return static_cast<double>(NowNs() - since_ns) / 1e9;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Nearest-rank percentile of sorted values.
double Percentile(const std::vector<double>& sorted, double p) {
  const size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

// Runs fn(i) for i in [0, n) on `threads` threads.
void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& th : pool) th.join();
}

// ---- inputs -----------------------------------------------------------------

/// One Zipf query log: the history WL the cache is built from and the test
/// stream the clients send, stored as indexes into its distinct queries.
struct Population {
  std::vector<std::vector<Scalar>> history;
  std::vector<std::vector<Scalar>> distinct;
  std::vector<uint32_t> stream;
};

struct Inputs {
  Dataset data;
  std::vector<Population> populations;
};

Inputs MakeInputs(const Config& c) {
  // The SOGOU-SIM generator family; sizes and seeds come from the command
  // line.
  eeb::workload::DatasetSpec spec = eeb::workload::SogouSimSpec();
  spec.name = c.workload;
  spec.n = c.n;
  spec.dim = c.dim;
  spec.ndom = c.ndom;
  spec.seed = c.data_seed;
  Inputs in;
  in.data = eeb::workload::GenerateClustered(spec);

  eeb::workload::QueryLogSpec log_spec = eeb::workload::DefaultLogSpec();
  log_spec.pool_size = c.pool;
  log_spec.workload_size = c.history;
  log_spec.test_size = c.stream;
  for (size_t r = 0; r < c.populations; ++r) {
    log_spec.seed = DeriveSeed(c.seed, r);
    eeb::workload::QueryLog log =
        eeb::workload::GenerateQueryLog(in.data, log_spec);
    Population pop;
    pop.history = std::move(log.workload);
    std::map<std::vector<Scalar>, uint32_t> index;
    for (std::vector<Scalar>& q : log.test) {
      auto [it, fresh] =
          index.emplace(q, static_cast<uint32_t>(pop.distinct.size()));
      if (fresh) pop.distinct.push_back(std::move(q));
      pop.stream.push_back(it->second);
    }
    in.populations.push_back(std::move(pop));
  }
  return in;
}

// ---- closed-loop clients ----------------------------------------------------

/// A measured phase runs at least this many queries, and its tail is read
/// over windows of this many consecutive queries, so that each window's p99
/// has ten samples beyond it.
constexpr size_t kMinPhaseQueries = 1000;

/// One finished query of a measured phase.
struct Sample {
  uint32_t query = 0;  // index into Population::distinct
  bool ok = false;     // OK status, neither degraded nor shed
  int64_t end_ns = 0;
  double latency_ms = 0;
  double modeled_io_ms = 0;
  std::vector<PointId> ids;
};

/// Runs one query for client `client`; `seq` numbers the query in its phase.
using QueryFn = std::function<Status(size_t client, uint64_t seq,
                                     std::span<const Scalar> q,
                                     QueryResult* out)>;

struct Phase {
  std::vector<Sample> samples;
  double seconds = 0;
};

// `clients` threads each take the next stream position, call fn, time the
// call, and take the next. With `seconds` == 0 the phase runs exactly
// `queries` queries; otherwise it runs until `seconds` have passed and at
// least `queries` have started. Queries in flight at the end finish and count.
Phase RunClosedLoop(const Population& pop, System* sys, const QueryFn& fn,
                    size_t clients, double seconds, size_t queries) {
  std::atomic<uint64_t> cursor{0};
  std::vector<std::vector<Sample>> per_client(clients);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      QueryResult r;
      for (;;) {
        const uint64_t seq = cursor++;
        if (seq >= queries && NowNs() >= deadline) break;
        const uint32_t qi = pop.stream[seq % pop.stream.size()];
        const int64_t t0 = NowNs();
        const Status s = fn(c, seq, pop.distinct[qi], &r);
        const int64_t t1 = NowNs();
        Sample smp;
        smp.query = qi;
        smp.ok = s.ok() && !r.degraded && !r.shed;
        smp.end_ns = t1;
        smp.latency_ms = static_cast<double>(t1 - t0) / 1e6;
        eeb::storage::IoStats io = r.gen_io;
        io += r.refine_io;
        smp.modeled_io_ms = sys->disk_model().Seconds(io) * 1e3;
        smp.ids = r.result_ids;
        per_client[c].push_back(std::move(smp));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Phase p;
  p.seconds = Seconds(start);
  for (auto& v : per_client) {
    for (Sample& s : v) p.samples.push_back(std::move(s));
  }
  return p;
}

// ---- answer checks ----------------------------------------------------------

/// The exact answer over C(q) for each distinct query, computed on demand.
class Oracle {
 public:
  Oracle(const Dataset& data, const Population& pop, System* sys, size_t k)
      : data_(data), pop_(pop), sys_(sys), k_(k),
        entries_(pop.distinct.size()) {}

  // Computes C(q) and the exact top-k for every listed query, in parallel.
  void Prepare(const std::vector<uint32_t>& queries, size_t threads) {
    std::vector<uint32_t> todo;
    for (uint32_t q : queries) {
      if (!entries_[q].ready) {
        entries_[q].ready = true;
        todo.push_back(q);
      }
    }
    ParallelFor(todo.size(), threads, [&](size_t i) {
      Entry& e = entries_[todo[i]];
      const auto& q = pop_.distinct[todo[i]];
      e.status = sys_->lsh().Candidates(q, k_, &e.candidates, nullptr);
      std::sort(e.candidates.begin(), e.candidates.end());
      e.expected = TopKDistances(data_, q, e.candidates, k_);
    });
  }

  std::string Check(uint32_t q, std::span<const PointId> returned) const {
    const Entry& e = entries_[q];
    if (!e.status.ok()) return "C(q) failed: " + e.status.ToString();
    return CheckAnswer(data_, pop_.distinct[q], returned, e.candidates,
                       e.expected);
  }

  const std::vector<PointId>& candidates(uint32_t q) const {
    return entries_[q].candidates;
  }

 private:
  struct Entry {
    bool ready = false;
    Status status;
    std::vector<PointId> candidates;  // sorted
    std::vector<double> expected;
  };
  const Dataset& data_;
  const Population& pop_;
  System* const sys_;
  const size_t k_;
  std::vector<Entry> entries_;
};

struct CheckReport {
  size_t attempted = 0;
  size_t failed = 0;
  bool correct = true;
  double recall_sum = 0;
  size_t recall_queries = 0;
  std::vector<std::string> errors;

  void Fail(std::string what, bool wrong_answer) {
    ++failed;
    if (wrong_answer) correct = false;
    if (errors.size() < 5) errors.push_back(std::move(what));
  }
};

// Checks every sample of a measured phase against the exact answer over C(q).
void CheckSamples(const Phase& phase, Oracle* oracle, size_t threads,
                  CheckReport* rep) {
  std::vector<uint32_t> queries;
  for (const Sample& s : phase.samples) queries.push_back(s.query);
  oracle->Prepare(queries, threads);
  for (const Sample& s : phase.samples) {
    ++rep->attempted;
    if (!s.ok) {
      rep->Fail("query failed, degraded or shed", false);
      continue;
    }
    if (std::string e = oracle->Check(s.query, s.ids); !e.empty()) {
      rep->Fail("query " + std::to_string(s.query) + ": " + e, true);
    }
  }
}

// After the measured phase: recall against brute force over a fixed sample of
// distinct queries, Lemma 1 on every cache hit of another sample, and the
// checker's self-test on a real answer and a real hit.
void CheckAfterPhase(const Config& c, const Dataset& data,
                     const Population& pop, System* sys, Oracle* oracle,
                     CheckReport* rep) {
  const size_t nr = std::min(c.recall_sample, pop.distinct.size());
  const size_t nb = std::min(c.bound_sample, pop.distinct.size());
  std::vector<uint32_t> sample;
  for (uint32_t q = 0; q < std::max(nr, nb); ++q) sample.push_back(q);
  oracle->Prepare(sample, c.clients);

  std::vector<QueryResult> results(nr);
  std::vector<Status> status(nr);
  std::vector<double> recall(nr);
  ParallelFor(nr, c.clients, [&](size_t i) {
    status[i] = sys->Query(pop.distinct[i], c.k, &results[i]);
    recall[i] = Recall(results[i].result_ids,
                       BruteForceKnn(data, pop.distinct[i], c.k));
  });
  for (size_t i = 0; i < nr; ++i) {
    ++rep->attempted;
    rep->recall_sum += recall[i];
    ++rep->recall_queries;
    if (!status[i].ok() || results[i].degraded) {
      rep->Fail("recall query failed or degraded", false);
    } else if (std::string e = oracle->Check(static_cast<uint32_t>(i),
                                             results[i].result_ids);
               !e.empty()) {
      rep->Fail("recall query " + std::to_string(i) + ": " + e, true);
    }
  }

  eeb::cache::KnnCache* cache = sys->cache();
  BoundSample first_hit;
  size_t hits = 0;
  for (uint32_t q = 0; q < nb; ++q) {
    ++rep->attempted;
    const auto& query = pop.distinct[q];
    std::string violation;
    for (PointId id : oracle->candidates(q)) {
      double lb = 0, ub = 0;
      if (!cache->Probe(query, id, &lb, &ub)) continue;
      const double exact = ExactL2(query, data.point(id));
      if (hits++ == 0) first_hit = {lb, exact, ub};
      if (std::string e = CheckBound(lb, exact, ub);
          !e.empty() && violation.empty()) {
        violation = "id " + std::to_string(id) + ": " + e;
      }
    }
    if (!violation.empty()) rep->Fail(violation, true);
  }
  if (hits == 0) {
    rep->Fail("no cache hit in the Lemma 1 sample", true);
    return;
  }
  if (!rep->correct) return;
  if (std::string e = SelfTest(data, pop.distinct[0], results[0].result_ids,
                               oracle->candidates(0), c.k, first_hit);
      !e.empty()) {
    rep->Fail(e, true);
  }
}

// ---- set-up and phases ------------------------------------------------------

eeb::core::SystemOptions MakeOptions(const Config& c) {
  eeb::core::SystemOptions opt;
  opt.ndom = c.ndom;
  opt.analysis_k = c.k;
  opt.lsh.beta_candidates = c.beta;
  return opt;
}

// Full-client warm-up; an LRU cache is run until full, then one pass more.
void WarmUp(const Config& c, const Population& pop, System* sys,
            const QueryFn& fn) {
  RunClosedLoop(pop, sys, fn, c.clients, 0, c.warmup_queries);
  if (!c.lru) return;
  eeb::cache::KnnCache* cache = sys->cache();
  for (int pass = 0; pass < 50 && cache->size() < cache->capacity_items();
       ++pass) {
    RunClosedLoop(pop, sys, fn, c.clients, 0, c.warmup_queries);
  }
  if (cache->size() < cache->capacity_items()) {
    Die("the LRU cache is not full after warm-up");
  }
  RunClosedLoop(pop, sys, fn, c.clients, 0, c.warmup_queries);
}

QueryFn SystemQuery(System* sys, size_t k) {
  return [sys, k](size_t, uint64_t, std::span<const Scalar> q,
                  QueryResult* out) { return sys->Query(q, k, out); };
}

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
             "\"}";
  }
  void Print(const CheckReport& rep) const {
    std::string errors;
    for (const std::string& e : rep.errors) {
      for (char ch : e) {
        if (ch != '"' && ch != '\\') errors += ch;
      }
      errors += "; ";
    }
    std::printf(
        "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
        "{%s}, \"errors\": \"%s\"}\n",
        rep.correct ? "true" : "false", rep.attempted, rep.failed,
        body_.c_str(), errors.c_str());
  }

 private:
  std::string body_;
};

// The p99 of each window of kMinPhaseQueries consecutive completions, over
// `samples` in completion order (the remainder joins the last window). The
// run reports the median window: CPU time the host takes from the virtual
// machine arrives in bursts of several milliseconds, and a burst lands in the
// tail of the window it falls in instead of in the tail of the whole run.
std::vector<double> WindowP99s(const std::vector<Sample>& samples) {
  const size_t windows = std::max<size_t>(1, samples.size() / kMinPhaseQueries);
  std::vector<double> p99s;
  for (size_t w = 0; w < windows; ++w) {
    const size_t end =
        w + 1 == windows ? samples.size() : (w + 1) * kMinPhaseQueries;
    std::vector<double> lat;
    for (size_t i = w * kMinPhaseQueries; i < end; ++i) {
      lat.push_back(samples[i].latency_ms);
    }
    std::sort(lat.begin(), lat.end());
    p99s.push_back(Percentile(lat, 0.99));
  }
  return p99s;
}

void ReportEndToEnd(const Config& c, const Inputs& in, Metrics* m,
                    CheckReport* rep) {
  const double phase_seconds = c.seconds / static_cast<double>(c.populations);
  std::vector<double> setups;
  std::vector<Sample> timed;  // every population's, in completion order
  double seconds = 0;
  for (const Population& pop : in.populations) {
    // System::Create plus ConfigureCache(HC-O, cost-model tau).
    std::unique_ptr<System> sys;
    const int64_t t0 = NowNs();
    Check(System::Create(eeb::storage::Env::Default(), c.dir, in.data,
                         pop.history, MakeOptions(c), &sys),
          "System::Create");
    Check(sys->ConfigureCache(eeb::core::CacheMethod::kHcO, c.cache_bytes,
                              /*tau=*/0, c.lru),
          "ConfigureCache");
    setups.push_back(Seconds(t0));

    const QueryFn fn = SystemQuery(sys.get(), c.k);
    WarmUp(c, pop, sys.get(), fn);
    Phase phase = RunClosedLoop(pop, sys.get(), fn, c.clients, phase_seconds,
                                kMinPhaseQueries);
    Oracle oracle(in.data, pop, sys.get(), c.k);
    CheckSamples(phase, &oracle, c.clients, rep);
    CheckAfterPhase(c, in.data, pop, sys.get(), &oracle, rep);
    std::fprintf(stderr, "perfbench: set-up %.3f s (tau %u); %zu queries in "
                 "%.2f s\n", setups.back(), sys->last_tau(),
                 phase.samples.size(), phase.seconds);
    seconds += phase.seconds;
    std::sort(phase.samples.begin(), phase.samples.end(),
              [](const Sample& a, const Sample& b) {
                return a.end_ns < b.end_ns;
              });
    for (Sample& s : phase.samples) timed.push_back(std::move(s));
  }
  const std::vector<double> p99s = WindowP99s(timed);
  std::vector<double> latency;
  double modeled = 0;
  for (const Sample& s : timed) {
    latency.push_back(s.latency_ms);
    modeled += s.modeled_io_ms;
  }
  std::sort(latency.begin(), latency.end());
  const double nq = static_cast<double>(latency.size());
  m->Add("qps", nq / seconds, "queries/s");
  m->Add("latency_p50_ms", Percentile(latency, 0.50), "ms");
  m->Add("latency_p99_ms", Median(p99s), "ms");
  m->Add("modeled_io_ms", modeled / nq, "ms/query");
  m->Add("recall_at_10",
         rep->recall_sum / static_cast<double>(rep->recall_queries),
         "fraction");
  m->Add("setup_s", Median(setups), "s");
  m->Add("peak_rss_mb", ProcStatusMiB("VmHWM"), "MiB");
  std::fprintf(stderr, "perfbench: %zu windows, p99 %.3f..%.3f ms\n",
               p99s.size(), *std::min_element(p99s.begin(), p99s.end()),
               *std::max_element(p99s.begin(), p99s.end()));
}

// Per-query sums of what the decorators and the engine recorded.
struct TraceTotals {
  uint64_t queries = 0;
  int64_t query_ns = 0, self_ns = 0;
  int64_t busy_ns[kNumLayers] = {};
  uint64_t calls[kNumLayers] = {};
  uint64_t nested = 0, candidates = 0, bucket_probes = 0, hits = 0;
  uint64_t read_bytes = 0, distinct_pages = 0;
  uint64_t refine_pages = 0, remaining = 0, fetched = 0, reduced = 0;
  uint64_t admits = 0, evictions = 0, entries_scanned = 0, lsh_queries = 0;

  void Add(QueryTrace& t, const QueryResult& r) {
    ++queries;
    query_ns += t.end_ns - t.start_ns;
    self_ns += t.self_ns;
    for (int l = 0; l < kNumLayers; ++l) {
      busy_ns[l] += t.layer[l].busy_ns;
      calls[l] += t.layer[l].calls;
    }
    nested += t.nested_calls;
    candidates += t.candidates;
    bucket_probes += t.bucket_probes;
    hits += t.cache_hits;
    read_bytes += t.read_bytes;
    distinct_pages += t.DistinctPages();
    refine_pages += r.refine_io.page_reads;
    remaining += r.remaining;
    fetched += r.fetched;
    reduced += r.pruned + r.true_hits;
  }
  void Merge(const TraceTotals& o) {
    queries += o.queries;
    query_ns += o.query_ns;
    self_ns += o.self_ns;
    for (int l = 0; l < kNumLayers; ++l) {
      busy_ns[l] += o.busy_ns[l];
      calls[l] += o.calls[l];
    }
    nested += o.nested;
    candidates += o.candidates;
    bucket_probes += o.bucket_probes;
    hits += o.hits;
    read_bytes += o.read_bytes;
    distinct_pages += o.distinct_pages;
    refine_pages += o.refine_pages;
    remaining += o.remaining;
    fetched += o.fetched;
    reduced += o.reduced;
    admits += o.admits;
    evictions += o.evictions;
    entries_scanned += o.entries_scanned;
    lsh_queries += o.lsh_queries;
  }
};

// Set-up steps of the first population, timed one by one through the
// modules' public functions.
struct SetUpSteps {
  double point_file_s = 0, index_build_s = 0, analysis_s = 0;
  double build_rss_mb = 0;
};

SetUpSteps TimeSetUpSteps(const Config& c, const Dataset& data,
                          const Population& pop) {
  eeb::storage::Env* env = eeb::storage::Env::Default();
  SetUpSteps s;
  const std::string file = c.dir + "/steps.eeb";
  int64_t t0 = NowNs();
  Check(eeb::storage::PointFile::Create(env, file, data), "PointFile::Create");
  s.point_file_s = Seconds(t0);
  Check(env->DeleteFile(file), "DeleteFile");

  const double rss0 = ProcStatusMiB("VmRSS");
  t0 = NowNs();
  std::unique_ptr<eeb::index::C2Lsh> lsh;
  Check(eeb::index::C2Lsh::Build(data, MakeOptions(c).lsh, &lsh),
        "C2Lsh::Build");
  s.index_build_s = Seconds(t0);
  s.build_rss_mb = ProcStatusMiB("VmRSS") - rss0;

  t0 = NowNs();
  eeb::core::WorkloadStats wl;
  Check(eeb::core::AnalyzeWorkload(lsh.get(), data, pop.history, c.k, &wl),
        "AnalyzeWorkload");
  s.analysis_s = Seconds(t0);
  return s;
}

void ReportPerLayer(const Config& c, const Inputs& in, Metrics* m,
                    CheckReport* rep) {
  const SetUpSteps steps = TimeSetUpSteps(c, in.data, in.populations[0]);
  const double phase_seconds = c.seconds / static_cast<double>(c.populations);
  const eeb::core::SystemOptions opt = MakeOptions(c);
  std::vector<double> configure_s, histogram_s;
  double plain_seconds = 0, traced_seconds = 0;
  size_t traced_queries = 0;
  std::vector<Sample> plain_samples;  // untraced, in completion order
  TraceTotals tt;
  std::vector<SpanRecord> all_spans;

  for (size_t r = 0; r < in.populations.size(); ++r) {
    const Population& pop = in.populations[r];
    TracedEnv traced_env(eeb::storage::Env::Default(), opt.page_size);
    eeb::obs::MetricsRegistry registry;  // outlives the index bound to it
    std::unique_ptr<System> sys;
    Check(System::Create(&traced_env, c.dir, in.data, pop.history, opt, &sys),
          "System::Create");
    int64_t t0 = NowNs();
    Check(sys->ConfigureCache(eeb::core::CacheMethod::kHcO, c.cache_bytes,
                              /*tau=*/0, c.lru),
          "ConfigureCache");
    configure_s.push_back(Seconds(t0));
    t0 = NowNs();
    {
      eeb::hist::Histogram h;
      Check(sys->BuildGlobalHistogram(eeb::core::CacheMethod::kHcO,
                                      sys->last_tau(), &h),
            "BuildGlobalHistogram");
    }
    histogram_s.push_back(Seconds(t0));

    // The traced engine: the system's own index, point file and cache, each
    // behind a decorator.
    sys->lsh().BindMetrics(&registry);
    eeb::cache::KnnCache* inner_cache = sys->cache();
    TracedIndex traced_index(&sys->lsh());
    TracedCache traced_cache(inner_cache);
    eeb::core::KnnEngine engine(&traced_index, &sys->point_file(),
                                &traced_cache, opt.engine);

    const QueryFn untraced = SystemQuery(sys.get(), c.k);
    WarmUp(c, pop, sys.get(), untraced);
    Phase plain = RunClosedLoop(pop, sys.get(), untraced, c.clients,
                                phase_seconds, kMinPhaseQueries);
    plain_seconds += plain.seconds;
    std::sort(plain.samples.begin(), plain.samples.end(),
              [](const Sample& a, const Sample& b) {
                return a.end_ns < b.end_ns;
              });
    for (Sample& s : plain.samples) plain_samples.push_back(std::move(s));

    std::vector<QueryTrace> trace(c.clients);
    std::vector<TraceTotals> totals(c.clients);
    std::vector<std::vector<SpanRecord>> spans(c.clients);
    const uint64_t id_base = static_cast<uint64_t>(r) << 40;
    const QueryFn traced = [&](size_t client, uint64_t seq,
                               std::span<const Scalar> q, QueryResult* out) {
      QueryTrace& t = trace[client];
      t.Begin(id_base + seq);
      Status s = engine.Query(q, c.k, out);
      t.End();
      totals[client].Add(t, *out);
      AppendSpans(t, &spans[client]);
      return s;
    };
    eeb::obs::Counter* entries = registry.GetCounter("lsh.entries_scanned");
    eeb::obs::Counter* lsh_queries = registry.GetCounter("lsh.queries");
    const uint64_t entries0 = entries->value();
    const uint64_t lsh_queries0 = lsh_queries->value();
    const auto act0 = inner_cache->activity();
    const Phase phase =
        RunClosedLoop(pop, sys.get(), traced, c.clients, phase_seconds,
                      kMinPhaseQueries);
    const auto act1 = inner_cache->activity();
    traced_seconds += phase.seconds;
    traced_queries += phase.samples.size();
    tt.admits += act1.admits - act0.admits;
    tt.evictions += act1.evictions - act0.evictions;
    tt.entries_scanned += entries->value() - entries0;
    tt.lsh_queries += lsh_queries->value() - lsh_queries0;
    for (size_t i = 0; i < c.clients; ++i) {
      tt.Merge(totals[i]);
      all_spans.insert(all_spans.end(), spans[i].begin(), spans[i].end());
    }

    Oracle oracle(in.data, pop, sys.get(), c.k);
    CheckSamples(phase, &oracle, c.clients, rep);
    CheckAfterPhase(c, in.data, pop, sys.get(), &oracle, rep);
  }
  if (!WriteSpans(c.spans_out, all_spans)) Die("cannot write " + c.spans_out);
  if (tt.nested != 0) {
    std::fprintf(stderr, "perfbench: %" PRIu64 " nested layer calls\n",
                 tt.nested);
  }

  const double nq = static_cast<double>(tt.queries);
  auto per_q = [nq](uint64_t v) { return static_cast<double>(v) / nq; };
  auto ms = [nq](int64_t ns) { return static_cast<double>(ns) / nq / 1e6; };
  auto ratio = [](double a, uint64_t b) {
    return a / static_cast<double>(std::max<uint64_t>(1, b));
  };
  int64_t layers_ns = tt.self_ns;
  for (int l = 0; l < kNumLayers; ++l) layers_ns += tt.busy_ns[l];

  m->Add("index.candidates_ms", ms(tt.busy_ns[kIndex]), "ms");
  m->Add("index.entries_scanned",
         ratio(static_cast<double>(tt.entries_scanned), tt.lsh_queries),
         "count");
  m->Add("index.candidates", per_q(tt.candidates), "count");
  m->Add("index.bucket_probes", per_q(tt.bucket_probes), "count");
  m->Add("index.build_rss_mb", steps.build_rss_mb, "MiB");
  m->Add("cache.probe_ms", ms(tt.busy_ns[kProbe]), "ms");
  m->Add("cache.probe_ns",
         ratio(static_cast<double>(tt.busy_ns[kProbe]), tt.calls[kProbe]),
         "ns");
  m->Add("cache.probes", per_q(tt.calls[kProbe]), "count");
  m->Add("cache.admit_ms", ms(tt.busy_ns[kAdmit]), "ms");
  m->Add("cache.admits", per_q(tt.admits), "count");
  m->Add("cache.evictions", per_q(tt.evictions), "count");
  m->Add("cache.hit_ratio",
         ratio(static_cast<double>(tt.hits), tt.calls[kProbe]), "fraction");
  m->Add("cache.reduced_per_hit",
         ratio(static_cast<double>(tt.reduced), tt.hits), "count");
  m->Add("core.remaining", per_q(tt.remaining), "count");
  m->Add("storage.read_ms", ms(tt.busy_ns[kRead]), "ms");
  m->Add("storage.reads", per_q(tt.calls[kRead]), "count");
  m->Add("storage.read_bytes", per_q(tt.read_bytes), "bytes");
  m->Add("storage.distinct_pages", per_q(tt.distinct_pages), "count");
  m->Add("storage.refine_pages", per_q(tt.refine_pages), "count");
  m->Add("core.query_ms", ms(tt.query_ns), "ms");
  m->Add("core.self_ms", ms(tt.self_ns), "ms");
  m->Add("core.fetched", per_q(tt.fetched), "count");
  m->Add("setup.point_file_s", steps.point_file_s, "s");
  m->Add("setup.index_build_s", steps.index_build_s, "s");
  m->Add("setup.workload_analysis_s", steps.analysis_s, "s");
  m->Add("setup.histogram_s", Median(histogram_s), "s");
  m->Add("setup.configure_cache_s", Median(configure_s), "s");
  const double trace_qps =
      static_cast<double>(traced_queries) / traced_seconds;
  const double plain_qps =
      static_cast<double>(plain_samples.size()) / plain_seconds;
  m->Add("trace.qps", trace_qps, "queries/s");
  m->Add("trace.untraced_qps", plain_qps, "queries/s");
  m->Add("trace.untraced_p99_ms", Median(WindowP99s(plain_samples)), "ms");
  m->Add("trace.overhead", plain_qps / trace_qps - 1.0, "fraction");
  m->Add("trace.reconcile_err",
         std::fabs(static_cast<double>(layers_ns - tt.query_ns)) /
             static_cast<double>(tt.query_ns),
         "fraction");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Config c = ParseArgs(argc, argv);
  std::filesystem::create_directories(c.dir);
  const int64_t t0 = NowNs();
  const Inputs in = MakeInputs(c);
  std::fprintf(stderr, "perfbench: %s inputs n=%zu d=%zu made in %.2f s\n",
               c.workload.c_str(), in.data.size(), in.data.dim(),
               Seconds(t0));
  Metrics m;
  CheckReport rep;
  if (c.trace) {
    ReportPerLayer(c, in, &m, &rep);
  } else {
    ReportEndToEnd(c, in, &m, &rep);
  }
  if (rep.correct) {
    std::fprintf(stderr,
                 "perfbench: every answer checked; the checker's self-test "
                 "rejected a swapped id and a shifted bound\n");
  }
  for (const std::string& e : rep.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  m.Print(rep);
  return 0;
}
