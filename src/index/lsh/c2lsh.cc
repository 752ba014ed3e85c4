#include "index/lsh/c2lsh.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/random.h"
#include "storage/point_file.h"

namespace eeb::index {
namespace {

int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

// Bytes per hash-table entry (key prefix compressed away on disk; an id list
// entry is one 8-byte word). Used only for index-I/O accounting.
constexpr size_t kEntryBytes = 8;

// Per-thread query scratch, shared by every C2Lsh instance on the thread.
// `counts` holds one collision counter per point and is all zero between
// queries: a query zeroes its index's n counters before it returns. That
// costs less than logging which points it touched, since a query scans
// about 1.5 table entries per point at 200k x 128. The arrays only grow,
// so a thread may serve instances of different sizes.
struct QueryScratch {
  std::vector<uint8_t> counts;
  std::vector<int64_t> qkeys;  // query key per function
  // Per function, the table entries [lo, hi) whose keys the search radius
  // covers so far.
  std::vector<size_t> lo, hi;
};

QueryScratch& Scratch(size_t n, uint32_t m) {
  thread_local QueryScratch s;
  if (s.counts.size() < n) s.counts.resize(n, 0);
  if (s.qkeys.size() < m) {
    s.qkeys.resize(m);
    s.lo.resize(m);
    s.hi.resize(m);
  }
  return s;
}

}  // namespace

Status C2Lsh::Build(const Dataset& data, const C2LshOptions& options,
                    std::unique_ptr<C2Lsh>* out) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  if (options.num_functions > 255) {
    // Collision counters are one byte; a point collides at most once per
    // function, so m <= 255 keeps every count exact.
    return Status::InvalidArgument("more than 255 hash functions");
  }
  if (options.collision_threshold > options.num_functions) {
    return Status::InvalidArgument("collision threshold exceeds m");
  }
  if (options.approximation_ratio < 2.0) {
    return Status::InvalidArgument("approximation ratio c must be >= 2");
  }

  std::unique_ptr<C2Lsh> idx(new C2Lsh(options, data.dim()));
  const size_t n = data.size();
  const size_t d = data.dim();
  const uint32_t m = options.num_functions;
  idx->n_ = n;

  Rng rng(options.seed);
  idx->proj_.assign(m, std::vector<double>(d));
  idx->shift_.assign(m, 0.0);
  for (uint32_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < d; ++j) idx->proj_[i][j] = rng.NextGaussian();
  }

  // Project everything once; optionally scale w by the projection spread so
  // level-0 buckets are meaningfully narrow for any data scale.
  std::vector<std::vector<double>> dots(m, std::vector<double>(n));
  double mean_abs = 0.0;
  for (uint32_t i = 0; i < m; ++i) {
    for (size_t p = 0; p < n; ++p) {
      auto pt = data.point(static_cast<PointId>(p));
      double dot = 0.0;
      for (size_t j = 0; j < d; ++j) dot += idx->proj_[i][j] * pt[j];
      dots[i][p] = dot;
      mean_abs += std::fabs(dot);
    }
  }
  mean_abs /= static_cast<double>(m) * n;

  idx->width_ = options.bucket_width;
  if (options.auto_scale_width) {
    // ~1/64 of the mean absolute projection: narrow enough that level 0
    // separates points, wide enough that virtual rehashing converges fast.
    idx->width_ = options.bucket_width * std::max(1e-9, mean_abs / 64.0);
  }

  for (uint32_t i = 0; i < m; ++i) {
    idx->shift_[i] = rng.NextDouble() * idx->width_;
  }

  // One function at a time: sort (key, id) pairs in a reused n-entry
  // buffer, split them into the table's key and id arrays, and release that
  // function's projections, so the build never holds a second full-size
  // copy of the tables.
  idx->tables_.resize(m);
  std::vector<std::pair<int64_t, PointId>> sorted(n);
  for (uint32_t i = 0; i < m; ++i) {
    for (size_t p = 0; p < n; ++p) {
      sorted[p] = {static_cast<int64_t>(std::floor(
                       (dots[i][p] + idx->shift_[i]) / idx->width_)),
                   static_cast<PointId>(p)};
    }
    std::vector<double>().swap(dots[i]);
    std::sort(sorted.begin(), sorted.end());
    Table& table = idx->tables_[i];
    table.keys.resize(n);
    table.ids.resize(n);
    for (size_t p = 0; p < n; ++p) {
      table.keys[p] = sorted[p].first;
      table.ids[p] = sorted[p].second;
    }
  }

  *out = std::move(idx);
  return Status::OK();
}

int64_t C2Lsh::KeyFor(uint32_t func, std::span<const Scalar> p) const {
  // eeb-hot-begin(lsh-projection): the generation kernel's dot product —
  // runs m times per query over the full dimensionality; pure arithmetic.
  double dot = shift_[func];
  const auto& a = proj_[func];
  for (size_t j = 0; j < dim_; ++j) dot += a[j] * p[j];
  return static_cast<int64_t>(std::floor(dot / width_));
  // eeb-hot-end
}

Status C2Lsh::Candidates(std::span<const Scalar> q, size_t k,
                         std::vector<PointId>* out,
                         storage::IoStats* stats) {
  if (q.size() != dim_) return Status::InvalidArgument("query dim mismatch");

  const uint32_t m = options_.num_functions;
  const uint32_t l = options_.collision_threshold;
  const int64_t c = static_cast<int64_t>(options_.approximation_ratio);
  const size_t want = std::min<size_t>(n_, k + options_.beta_candidates);
  out->resize(want);

  QueryScratch& scratch = Scratch(n_, m);
  uint8_t* counts = scratch.counts.data();
  int64_t* qkeys = scratch.qkeys.data();
  size_t* lo = scratch.lo.data();
  size_t* hi = scratch.hi.data();
  for (uint32_t i = 0; i < m; ++i) qkeys[i] = KeyFor(i, q);

  PointId* admitted = out->data();
  size_t nout = 0;
  uint64_t total_probes = 0;
  uint64_t total_entries = 0;
  uint64_t total_seq_pages = 0;
  int64_t bucket = 1;  // c^level

  // eeb-hot-begin(lsh-scan): the collision-count scan — streams the ids of
  // every table entry the growing radius newly covers, ~1.5 entries per
  // dataset point per query; works only in the pre-sized scratch and `out`.
  //
  // Counts entries [j, end) of `ids`; returns where it stopped: at `end`,
  // or just past the entry that met the k + beta target. Points crossing
  // the threshold earliest (at the smallest radius) are the most promising,
  // and since nothing is admitted after the target, the scan stops there.
  const auto scan = [&](const PointId* ids, size_t j, size_t end) {
    for (; j < end; ++j) {
      const PointId id = ids[j];
      const uint32_t seen = counts[id];
      counts[id] = static_cast<uint8_t>(seen + 1);
      if (seen + 1 == l) {
        admitted[nout++] = id;
        if (nout == want) return j + 1;
      }
    }
    return end;
  };
  bool done = want == 0;
  for (uint32_t level = 0; !done && level < options_.max_levels; ++level) {
    for (uint32_t i = 0; i < m && !done; ++i) {
      const int64_t new_lo = FloorDiv(qkeys[i], bucket) * bucket;
      const int64_t* keys = tables_[i].keys.data();
      const PointId* ids = tables_[i].ids.data();
      if (level == 0) {
        lo[i] = hi[i] = std::lower_bound(keys, keys + n_, new_lo) - keys;
      }
      // Entries covered for the first time at this level: [first, lo) to
      // the left of the covered run, then [hi, last) to its right.
      const size_t first = std::lower_bound(keys, keys + lo[i], new_lo) - keys;
      const size_t last =
          std::lower_bound(keys + hi[i], keys + n_, new_lo + bucket) - keys;
      size_t entries_scanned = scan(ids, first, lo[i]) - first;
      done = nout == want;
      if (!done) {
        entries_scanned += scan(ids, hi[i], last) - hi[i];
        done = nout == want;
      }
      lo[i] = first;
      hi[i] = last;

      // One random bucket-directory probe per function and level, plus the
      // id-list pages, which are scanned sequentially.
      total_probes += 1;
      total_entries += entries_scanned;
      total_seq_pages +=
          (entries_scanned * kEntryBytes) / storage::kDefaultPageSize;
    }
    if (done) break;
    if (bucket > (int64_t{1} << 60) / c) break;  // overflow guard
    bucket *= c;
  }
  std::fill(counts, counts + n_, uint8_t{0});
  // eeb-hot-end

  out->resize(nout);
  std::sort(out->begin(), out->end());
  if (stats != nullptr) {
    stats->page_reads += total_probes;
    stats->seq_page_reads += total_seq_pages;
    stats->bytes_read += total_entries * kEntryBytes;
  }
  const double radius = width_ * static_cast<double>(bucket);
  last_radius_.store(radius, std::memory_order_relaxed);
  if (obs_.queries != nullptr) {
    obs_.queries->Add(1);
    obs_.bucket_probes->Add(total_probes);
    obs_.entries_scanned->Add(total_entries);
    obs_.seq_page_reads->Add(total_seq_pages);
    obs_.candidates->Add(nout);
    obs_.last_radius->Set(radius);
  }
  return Status::OK();
}

void C2Lsh::BindMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    obs_ = Instruments{};
    return;
  }
  obs_.queries = registry->GetCounter("lsh.queries");
  obs_.bucket_probes = registry->GetCounter("lsh.bucket_probes");
  obs_.entries_scanned = registry->GetCounter("lsh.entries_scanned");
  obs_.seq_page_reads = registry->GetCounter("lsh.seq_page_reads");
  obs_.candidates = registry->GetCounter("lsh.candidates");
  obs_.last_radius = registry->GetGauge("lsh.last_radius");
}

}  // namespace eeb::index
