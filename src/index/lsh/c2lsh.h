// C2LSH [Gan et al., SIGMOD'12]: locality-sensitive hashing with dynamic
// collision counting. m atomic p-stable hash functions h_i(p) =
// floor((a_i . p + b_i) / w); a point becomes a candidate once it collides
// with the query in at least `l` functions. Search radii grow geometrically
// (virtual rehashing: at level r the bucket of key x is floor(x / c^r)),
// so one physical index serves every radius.
//
// The hash tables are conceptually disk-resident (bucket lists of ids); we
// keep them in RAM for speed but charge index I/O per bucket-list visit so
// the candidate-generation cost of paper Fig. 1 is reproduced.
//
// Concurrency: after Build the index is immutable; Candidates uses only
// thread_local collision-count scratch, so concurrent queries are safe
// (docs/CONCURRENCY.md).

#ifndef EEB_INDEX_LSH_C2LSH_H_
#define EEB_INDEX_LSH_C2LSH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/dataset.h"
#include "index/candidate_index.h"
#include "obs/metrics.h"

namespace eeb::index {

/// Tuning knobs; defaults follow the C2LSH paper's recommendations scaled to
/// our surrogate datasets.
struct C2LshOptions {
  uint32_t num_functions = 16;     ///< m, atomic hash functions (<= 255)
  uint32_t collision_threshold = 8;  ///< l, collisions to become candidate
  double bucket_width = 1.0;       ///< w; scaled by data spread at build
  double approximation_ratio = 2.0;  ///< c, radius growth factor
  uint32_t beta_candidates = 200;  ///< stop after k + beta candidates
  uint32_t max_levels = 24;        ///< virtual rehashing cap
  uint64_t seed = 42;
  /// When true, `bucket_width` is multiplied by the per-projection standard
  /// deviation so one setting works across datasets of different scales.
  bool auto_scale_width = true;
};

/// In-memory C2LSH index with per-query collision counting.
class C2Lsh : public CandidateIndex {
 public:
  /// Builds the index over `data`. The dataset reference must stay valid for
  /// the index lifetime (only for dim(); keys are materialized).
  static Status Build(const Dataset& data, const C2LshOptions& options,
                      std::unique_ptr<C2Lsh>* out);

  /// Admits points in the order they reach `l` collisions, up to k + beta
  /// (returned sorted by id), and stops scanning at that target. `stats` is
  /// charged one random page per (function, level) probed plus the id-list
  /// bytes actually scanned.
  Status Candidates(std::span<const Scalar> q, size_t k,
                    std::vector<PointId>* out,
                    storage::IoStats* stats) override;

  std::string name() const override { return "C2LSH"; }

  /// Terminal search radius R of the last query, in original distance units.
  /// Dmax = c * R feeds the cost model (Thm. 3). Under concurrent queries
  /// this reports whichever query finished last — observational only.
  double last_radius() const {
    return last_radius_.load(std::memory_order_relaxed);
  }

  /// Binds candidate-generation instruments (queries, bucket probes,
  /// entries scanned, sequential pages, candidates, terminal radius) in
  /// `registry`; nullptr detaches.
  void BindMetrics(obs::MetricsRegistry* registry);

  const C2LshOptions& options() const { return options_; }

 private:
  C2Lsh(const C2LshOptions& options, size_t dim)
      : options_(options), dim_(dim) {}

  int64_t KeyFor(uint32_t func, std::span<const Scalar> p) const;

  C2LshOptions options_;
  size_t dim_;
  double width_;  // effective bucket width after auto-scaling
  size_t n_ = 0;

  // Per function: projection vector, offset, and the points sorted by
  // (key, id) for interval widening during virtual rehashing. Keys and ids
  // are separate arrays: binary search touches keys only, and the collision
  // scan streams 4-byte ids.
  std::vector<std::vector<double>> proj_;
  std::vector<double> shift_;
  struct Table {
    std::vector<int64_t> keys;
    std::vector<PointId> ids;
  };
  std::vector<Table> tables_;

  std::atomic<double> last_radius_{0.0};

  // Bound instruments (nullptr when observability is off).
  struct Instruments {
    obs::Counter* queries = nullptr;
    obs::Counter* bucket_probes = nullptr;
    obs::Counter* entries_scanned = nullptr;
    obs::Counter* seq_page_reads = nullptr;
    obs::Counter* candidates = nullptr;
    obs::Gauge* last_radius = nullptr;
  } obs_;
};

}  // namespace eeb::index

#endif  // EEB_INDEX_LSH_C2LSH_H_
