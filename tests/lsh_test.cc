// Tests for the C2LSH index: option validation, determinism, candidate
// volume, recall against ground truth, radius growth, I/O accounting, and a
// differential check of the collision-count kernel against a reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "common/dataset.h"
#include "common/random.h"
#include "index/linear_scan.h"
#include "index/lsh/c2lsh.h"
#include "storage/io_stats.h"
#include "storage/point_file.h"

namespace eeb::index {
namespace {

Dataset ClusteredData(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  Dataset d(dim);
  std::vector<Scalar> p(dim);
  const int clusters = 8;
  std::vector<std::vector<double>> centers(clusters,
                                           std::vector<double>(dim));
  for (auto& c : centers) {
    for (auto& v : c) v = 40 + rng.NextDouble() * 176;
  }
  for (size_t i = 0; i < n; ++i) {
    const auto& c = centers[rng.Uniform(clusters)];
    for (size_t j = 0; j < dim; ++j) {
      double v = c[j] + rng.NextGaussian() * 10;
      if (v < 0) v = 0;
      if (v > 255) v = 255;
      p[j] = static_cast<Scalar>(static_cast<int>(v));
    }
    d.Append(p);
  }
  return d;
}

C2LshOptions DefaultOptions() {
  C2LshOptions o;
  o.num_functions = 16;
  o.collision_threshold = 8;
  o.beta_candidates = 100;
  o.seed = 5;
  return o;
}

// Reference C2LSH: the index as it stood before its tables were split into
// key and id arrays. Build and the scan are kept as they were: (key, id)
// structs, a first-touch branch, and a scan that finishes every function of
// the level at which the k + beta target is met and charges it in full. The
// optimized kernel must admit exactly the same candidates at the same
// radius and may only charge less index I/O.
class ReferenceC2Lsh {
 public:
  static Status Build(const Dataset& data, const C2LshOptions& options,
                      std::unique_ptr<ReferenceC2Lsh>* out) {
    std::unique_ptr<ReferenceC2Lsh> idx(new ReferenceC2Lsh());
    idx->options_ = options;
    idx->dim_ = data.dim();
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
      idx->width_ = options.bucket_width * std::max(1e-9, mean_abs / 64.0);
    }

    for (uint32_t i = 0; i < m; ++i) {
      idx->shift_[i] = rng.NextDouble() * idx->width_;
    }

    idx->tables_.assign(m, {});
    for (uint32_t i = 0; i < m; ++i) {
      auto& table = idx->tables_[i];
      table.resize(n);
      for (size_t p = 0; p < n; ++p) {
        const int64_t key = static_cast<int64_t>(
            std::floor((dots[i][p] + idx->shift_[i]) / idx->width_));
        table[p] = {key, static_cast<PointId>(p)};
      }
      std::sort(table.begin(), table.end());
    }
    idx->counts_.assign(n, 0);

    *out = std::move(idx);
    return Status::OK();
  }

  Status Candidates(std::span<const Scalar> q, size_t k,
                    std::vector<PointId>* out, storage::IoStats* stats) {
    out->clear();

    const uint32_t m = options_.num_functions;
    const uint32_t l = options_.collision_threshold;
    const int64_t c = static_cast<int64_t>(options_.approximation_ratio);
    const size_t want = std::min<size_t>(n_, k + options_.beta_candidates);

    std::vector<uint8_t>& counts = counts_;
    std::vector<PointId>& touched = touched_;
    for (PointId id : touched) counts[id] = 0;
    touched.clear();

    std::vector<int64_t> qkeys(m);
    for (uint32_t i = 0; i < m; ++i) qkeys[i] = KeyFor(i, q);

    std::vector<int64_t> lo(m), hi(m);
    bool first_level = true;

    int64_t bucket = 1;  // c^level
    uint32_t level = 0;
    for (; level < options_.max_levels; ++level) {
      for (uint32_t i = 0; i < m; ++i) {
        const int64_t idx = FloorDiv(qkeys[i], bucket);
        const int64_t new_lo = idx * bucket;
        const int64_t new_hi = new_lo + bucket - 1;

        struct Range {
          int64_t a, b;
        };
        Range fresh[2];
        int nfresh = 0;
        if (first_level) {
          fresh[nfresh++] = {new_lo, new_hi};
        } else {
          if (new_lo < lo[i]) fresh[nfresh++] = {new_lo, lo[i] - 1};
          if (new_hi > hi[i]) fresh[nfresh++] = {hi[i] + 1, new_hi};
        }
        lo[i] = new_lo;
        hi[i] = new_hi;

        size_t entries_scanned = 0;
        const auto& table = tables_[i];
        for (int r = 0; r < nfresh; ++r) {
          auto begin = std::lower_bound(
              table.begin(), table.end(), fresh[r].a,
              [](const Entry& e, int64_t key) { return e.key < key; });
          auto end = std::lower_bound(
              table.begin(), table.end(), fresh[r].b + 1,
              [](const Entry& e, int64_t key) { return e.key < key; });
          for (auto it = begin; it != end; ++it) {
            if (counts[it->id] == 0) touched.push_back(it->id);
            if (counts[it->id] < 255) counts[it->id]++;
            if (counts[it->id] == l && out->size() < want) {
              out->push_back(it->id);
            }
          }
          entries_scanned += static_cast<size_t>(end - begin);
        }

        const uint64_t seq_pages =
            (entries_scanned * kEntryBytes) / storage::kDefaultPageSize;
        if (stats != nullptr) {
          stats->page_reads += 1;
          stats->seq_page_reads += seq_pages;
          stats->bytes_read += entries_scanned * kEntryBytes;
        }
      }
      first_level = false;
      if (out->size() >= want) break;
      if (bucket > (int64_t{1} << 60) / c) break;  // overflow guard
      bucket *= c;
    }

    last_radius_ = width_ * static_cast<double>(bucket);
    std::sort(out->begin(), out->end());
    return Status::OK();
  }

  double last_radius() const { return last_radius_; }

 private:
  static constexpr size_t kEntryBytes = 8;

  static int64_t FloorDiv(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
    return q;
  }

  int64_t KeyFor(uint32_t func, std::span<const Scalar> p) const {
    double dot = shift_[func];
    const auto& a = proj_[func];
    for (size_t j = 0; j < dim_; ++j) dot += a[j] * p[j];
    return static_cast<int64_t>(std::floor(dot / width_));
  }

  struct Entry {
    int64_t key;
    PointId id;
    bool operator<(const Entry& o) const {
      if (key != o.key) return key < o.key;
      return id < o.id;
    }
  };

  C2LshOptions options_;
  size_t dim_ = 0;
  double width_ = 0.0;
  size_t n_ = 0;
  std::vector<std::vector<double>> proj_;
  std::vector<double> shift_;
  std::vector<std::vector<Entry>> tables_;
  std::vector<uint8_t> counts_;
  std::vector<PointId> touched_;
  double last_radius_ = 0.0;
};

// Queries of three kinds: jittered data points (the usual multimedia
// query), uniform random points, and the domain corner far from every
// cluster, which forces many levels of virtual rehashing.
std::vector<std::vector<Scalar>> MixedQueries(const Dataset& data,
                                              size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Scalar>> queries;
  for (size_t t = 0; t < count; ++t) {
    std::vector<Scalar> q(data.dim());
    if (t % 4 == 3) {
      for (auto& v : q) v = static_cast<Scalar>(rng.Uniform(256));
    } else if (t % 8 == 6) {
      for (auto& v : q) v = 0;
    } else {
      auto p = data.point(static_cast<PointId>(rng.Uniform(data.size())));
      for (size_t j = 0; j < q.size(); ++j) {
        q[j] = static_cast<Scalar>(std::max(
            0.0, std::min(255.0, p[j] + rng.NextGaussian() * 4)));
      }
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

// Runs `queries` through C2Lsh and the reference built with the same
// options; the candidate vectors and radii must be identical and every
// index I/O figure no larger. Accumulates both sides' I/O in *ours/*ref.
void ExpectMatchesReference(const Dataset& data, const C2LshOptions& o,
                            const std::vector<std::vector<Scalar>>& queries,
                            size_t k, storage::IoStats* ours,
                            storage::IoStats* ref) {
  std::unique_ptr<C2Lsh> idx;
  std::unique_ptr<ReferenceC2Lsh> reference;
  ASSERT_TRUE(C2Lsh::Build(data, o, &idx).ok());
  ASSERT_TRUE(ReferenceC2Lsh::Build(data, o, &reference).ok());
  for (size_t t = 0; t < queries.size(); ++t) {
    SCOPED_TRACE("query " + std::to_string(t));
    std::vector<PointId> got, want;
    storage::IoStats got_io, want_io;
    ASSERT_TRUE(idx->Candidates(queries[t], k, &got, &got_io).ok());
    ASSERT_TRUE(
        reference->Candidates(queries[t], k, &want, &want_io).ok());
    ASSERT_EQ(got, want);
    ASSERT_EQ(idx->last_radius(), reference->last_radius());
    EXPECT_LE(got_io.page_reads, want_io.page_reads);
    EXPECT_LE(got_io.seq_page_reads, want_io.seq_page_reads);
    EXPECT_LE(got_io.bytes_read, want_io.bytes_read);
    *ours += got_io;
    *ref += want_io;
  }
}

TEST(C2LshTest, RejectsBadOptions) {
  Dataset data = ClusteredData(100, 8, 1);
  std::unique_ptr<C2Lsh> idx;
  C2LshOptions o = DefaultOptions();
  o.collision_threshold = 20;  // > m
  EXPECT_TRUE(C2Lsh::Build(data, o, &idx).IsInvalidArgument());
  // Collision counters are one byte, so more than 255 functions would make
  // any threshold above 255 unreachable.
  o = DefaultOptions();
  o.num_functions = 256;
  o.collision_threshold = 256;
  EXPECT_TRUE(C2Lsh::Build(data, o, &idx).IsInvalidArgument());
  o.collision_threshold = 8;
  EXPECT_TRUE(C2Lsh::Build(data, o, &idx).IsInvalidArgument());
  o.num_functions = 255;
  EXPECT_TRUE(C2Lsh::Build(data, o, &idx).ok());
  o = DefaultOptions();
  o.approximation_ratio = 1.5;
  EXPECT_TRUE(C2Lsh::Build(data, o, &idx).IsInvalidArgument());
  EXPECT_TRUE(C2Lsh::Build(Dataset(8), DefaultOptions(), &idx)
                  .IsInvalidArgument());
}

TEST(C2LshTest, KernelMatchesReferenceAcrossShapes) {
  storage::IoStats ours, ref;
  for (uint64_t seed : {1u, 2u}) {
    for (size_t d : {8u, 32u, 128u}) {
      const Dataset data = ClusteredData(1500, d, 100 + seed * 7 + d);
      const auto queries = MixedQueries(data, 12, seed * 31 + d);
      for (uint32_t m : {8u, 16u, 24u}) {
        for (uint32_t l : {1u, m / 2, m * 3 / 4, m}) {
          for (uint32_t beta : {0u, 40u, 300u}) {
            for (double c : {2.0, 3.0}) {
              C2LshOptions o;
              o.num_functions = m;
              o.collision_threshold = l;
              o.beta_candidates = beta;
              o.approximation_ratio = c;
              o.seed = seed;
              SCOPED_TRACE("seed=" + std::to_string(seed) +
                           " d=" + std::to_string(d) +
                           " m=" + std::to_string(m) +
                           " l=" + std::to_string(l) +
                           " beta=" + std::to_string(beta) +
                           " c=" + std::to_string(c));
              ExpectMatchesReference(data, o, queries, 10, &ours, &ref);
              if (HasFatalFailure()) return;
            }
          }
        }
      }
    }
  }
  // Stopping at k + beta must save scanning somewhere in the sweep, or the
  // early exit has silently stopped working.
  EXPECT_LT(ours.bytes_read, ref.bytes_read);
  EXPECT_LT(ours.page_reads, ref.page_reads);
}

TEST(C2LshTest, KernelMatchesReferenceWhenWantCoversDataset) {
  // k + beta >= n: the target is the whole dataset, so the scan runs until
  // every point reaches the threshold or the levels run out.
  const Dataset data = ClusteredData(300, 16, 41);
  const auto queries = MixedQueries(data, 8, 43);
  storage::IoStats ours, ref;
  for (uint32_t beta : {290u, 1000u}) {
    C2LshOptions o = DefaultOptions();
    o.beta_candidates = beta;
    SCOPED_TRACE("beta=" + std::to_string(beta));
    ExpectMatchesReference(data, o, queries, 10, &ours, &ref);
  }
}

TEST(C2LshTest, KernelMatchesReferenceUnderLevelCap) {
  // A low max_levels ends the search before k + beta is reached; the
  // radius is then set by the cap, not by the target.
  const Dataset data = ClusteredData(2000, 32, 47);
  const auto queries = MixedQueries(data, 12, 53);
  storage::IoStats ours, ref;
  for (uint32_t cap : {0u, 1u, 2u, 4u, 7u}) {
    C2LshOptions o = DefaultOptions();
    o.max_levels = cap;
    SCOPED_TRACE("max_levels=" + std::to_string(cap));
    ExpectMatchesReference(data, o, queries, 10, &ours, &ref);
  }
}

TEST(C2LshTest, ZeroTargetReturnsNoCandidates) {
  const Dataset data = ClusteredData(500, 16, 59);
  C2LshOptions o = DefaultOptions();
  o.beta_candidates = 0;
  std::unique_ptr<C2Lsh> idx;
  ASSERT_TRUE(C2Lsh::Build(data, o, &idx).ok());
  std::vector<Scalar> q(data.point(3).begin(), data.point(3).end());
  std::vector<PointId> cand{1, 2, 3};
  storage::IoStats stats;
  ASSERT_TRUE(idx->Candidates(q, 0, &cand, &stats).ok());
  EXPECT_TRUE(cand.empty());
  EXPECT_EQ(stats.bytes_read, 0u);
  // The next query on this thread still sees clean collision counters.
  std::vector<PointId> again, fresh;
  ASSERT_TRUE(idx->Candidates(q, 10, &again, nullptr).ok());
  std::unique_ptr<ReferenceC2Lsh> reference;
  ASSERT_TRUE(ReferenceC2Lsh::Build(data, o, &reference).ok());
  ASSERT_TRUE(reference->Candidates(q, 10, &fresh, nullptr).ok());
  EXPECT_EQ(again, fresh);
}

TEST(C2LshTest, ReportsEnoughCandidates) {
  Dataset data = ClusteredData(2000, 16, 3);
  std::unique_ptr<C2Lsh> idx;
  ASSERT_TRUE(C2Lsh::Build(data, DefaultOptions(), &idx).ok());

  Rng rng(7);
  std::vector<Scalar> q(16);
  for (auto& v : q) v = static_cast<Scalar>(rng.Uniform(256));
  std::vector<PointId> cand;
  ASSERT_TRUE(idx->Candidates(q, 10, &cand, nullptr).ok());
  EXPECT_GE(cand.size(), 110u);  // k + beta
  EXPECT_LE(cand.size(), data.size());
  // Ids are unique and sorted.
  std::set<PointId> uniq(cand.begin(), cand.end());
  EXPECT_EQ(uniq.size(), cand.size());
  EXPECT_TRUE(std::is_sorted(cand.begin(), cand.end()));
}

TEST(C2LshTest, DeterministicAcrossRuns) {
  Dataset data = ClusteredData(1000, 16, 5);
  std::unique_ptr<C2Lsh> a, b;
  ASSERT_TRUE(C2Lsh::Build(data, DefaultOptions(), &a).ok());
  ASSERT_TRUE(C2Lsh::Build(data, DefaultOptions(), &b).ok());
  std::vector<Scalar> q(16, 128);
  std::vector<PointId> ca, cb;
  ASSERT_TRUE(a->Candidates(q, 10, &ca, nullptr).ok());
  ASSERT_TRUE(b->Candidates(q, 10, &cb, nullptr).ok());
  EXPECT_EQ(ca, cb);
  // Repeated queries on the same index are also stable.
  std::vector<PointId> ca2;
  ASSERT_TRUE(a->Candidates(q, 10, &ca2, nullptr).ok());
  EXPECT_EQ(ca, ca2);
}

TEST(C2LshTest, RecallOnClusteredData) {
  // c-approximate guarantee cannot be asserted exactly, but on clustered
  // data most true neighbors must appear among the candidates.
  Dataset data = ClusteredData(5000, 16, 11);
  std::unique_ptr<C2Lsh> idx;
  ASSERT_TRUE(C2Lsh::Build(data, DefaultOptions(), &idx).ok());

  Rng rng(13);
  double recall_sum = 0;
  const int queries = 20;
  const size_t k = 10;
  for (int t = 0; t < queries; ++t) {
    // Query near a data point, as multimedia queries are.
    const PointId src = static_cast<PointId>(rng.Uniform(data.size()));
    std::vector<Scalar> q(data.point(src).begin(), data.point(src).end());
    for (auto& v : q) {
      v = static_cast<Scalar>(
          std::max(0.0, std::min(255.0, v + rng.NextGaussian() * 2)));
    }
    std::vector<PointId> cand;
    ASSERT_TRUE(idx->Candidates(q, k, &cand, nullptr).ok());
    std::set<PointId> cset(cand.begin(), cand.end());
    auto truth = LinearScanKnn(data, q, k);
    int found = 0;
    for (const auto& nb : truth) found += cset.count(nb.id) ? 1 : 0;
    recall_sum += static_cast<double>(found) / k;
  }
  EXPECT_GT(recall_sum / queries, 0.6) << "candidate recall too low";
}

TEST(C2LshTest, ChargesIndexIo) {
  Dataset data = ClusteredData(2000, 16, 17);
  std::unique_ptr<C2Lsh> idx;
  ASSERT_TRUE(C2Lsh::Build(data, DefaultOptions(), &idx).ok());
  std::vector<Scalar> q(16, 100);
  std::vector<PointId> cand;
  storage::IoStats stats;
  ASSERT_TRUE(idx->Candidates(q, 10, &cand, &stats).ok());
  EXPECT_GE(stats.page_reads, DefaultOptions().num_functions)
      << "at least one bucket lookup per hash function";
}

TEST(C2LshTest, RadiusGrowsWithScatteredQueries) {
  Dataset data = ClusteredData(2000, 16, 19);
  std::unique_ptr<C2Lsh> idx;
  ASSERT_TRUE(C2Lsh::Build(data, DefaultOptions(), &idx).ok());

  // A query at a data point terminates at a smaller radius than a far-away
  // query in empty space.
  std::vector<Scalar> near(data.point(0).begin(), data.point(0).end());
  std::vector<PointId> cand;
  ASSERT_TRUE(idx->Candidates(near, 10, &cand, nullptr).ok());
  const double r_near = idx->last_radius();

  std::vector<Scalar> far(16, 0);  // domain corner, far from all clusters
  ASSERT_TRUE(idx->Candidates(far, 10, &cand, nullptr).ok());
  const double r_far = idx->last_radius();
  EXPECT_GE(r_far, r_near);
}

TEST(C2LshTest, QueryDimMismatchRejected) {
  Dataset data = ClusteredData(100, 8, 23);
  std::unique_ptr<C2Lsh> idx;
  ASSERT_TRUE(C2Lsh::Build(data, DefaultOptions(), &idx).ok());
  std::vector<Scalar> q(4, 0);
  std::vector<PointId> cand;
  EXPECT_TRUE(idx->Candidates(q, 5, &cand, nullptr).IsInvalidArgument());
}

TEST(LinearScanTest, ExactOnTinyInput) {
  Dataset data(1);
  for (Scalar v : {5.f, 1.f, 9.f, 3.f}) {
    std::vector<Scalar> p{v};
    data.Append(p);
  }
  std::vector<Scalar> q{2};
  auto r = LinearScanKnn(data, q, 2);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].id, 1u);  // value 1, dist 1
  EXPECT_EQ(r[1].id, 3u);  // value 3, dist 1 (tie, larger id)
}

}  // namespace
}  // namespace eeb::index
