// EXACT cache baseline (paper Sec. 5.1): caches full-precision points. A hit
// yields the exact distance (lb == ub), a miss forces a disk fetch. Supports
// the static HFF fill and the dynamic LRU policy (Fig. 8).
//
// Concurrency: statically filled caches are immutable after Fill and probe
// lock-free. Under LRU, probes and admissions mutate the slot table, recency
// list and value store, so the whole mutating path serializes behind `mu_`
// (docs/CONCURRENCY.md).

#ifndef EEB_CACHE_EXACT_CACHE_H_
#define EEB_CACHE_EXACT_CACHE_H_

#include <atomic>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/dataset.h"
#include "common/distance.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "cache/code_store.h"
#include "cache/knn_cache.h"

namespace eeb::cache {

/// Cache of exact (full-precision) points.
class ExactCache : public KnnCache {
 public:
  /// @param dim             point dimensionality
  /// @param capacity_bytes  cache budget; item count = budget / item_bytes
  /// @param lru             true enables dynamic admission/eviction
  ExactCache(size_t dim, size_t capacity_bytes, bool lru = false);

  /// Static HFF fill: inserts points from `data` in the given order (callers
  /// pass ids sorted by descending workload frequency) until full.
  Status Fill(const Dataset& data, std::span<const PointId> ids_by_freq);

  bool Probe(std::span<const Scalar> q, PointId id, double* lb,
             double* ub) override;

  void Admit(PointId id, std::span<const Scalar> exact) override;

  size_t item_bytes() const override { return dim_ * sizeof(Scalar); }
  /// Items currently cached. Reads an atomic count maintained under `mu_`,
  /// so it is safe to call concurrently with LRU probes/admissions.
  size_t size() const override {
    return item_count_.load(std::memory_order_relaxed);
  }
  size_t capacity_items() const override { return capacity_items_; }

 private:
  /// Allocates or recycles a slot (LRU eviction path).
  uint32_t SlotFor() EEB_REQUIRES(mu_);

  /// LRU probe: the recency touch and the distance over the slot's values
  /// hold `mu_`.
  bool ProbeLocked(std::span<const Scalar> q, PointId id, double* lb,
                   double* ub) EEB_REQUIRES(mu_);

  /// Static (HFF) probe. Invariant that makes the suppression sound: a
  /// statically filled cache is immutable after Fill, which completes
  /// before the generation is published to engine threads (core/system.cc),
  /// so these unlocked reads race with nothing.
  bool ProbeStatic(std::span<const Scalar> q, PointId id, double* lb,
                   double* ub) EEB_NO_THREAD_SAFETY_ANALYSIS;

  const size_t dim_;
  const size_t capacity_items_;
  const bool lru_;
  Mutex mu_;  // guards the slot table / values / recency list
  std::unordered_map<PointId, uint32_t> slot_of_ EEB_GUARDED_BY(mu_);
  std::vector<Scalar> values_ EEB_GUARDED_BY(mu_);  // slot-major storage
  LruTracker lru_list_ EEB_GUARDED_BY(mu_);
  // Mirror of slot_of_.size(), refreshed under mu_ at the end of every
  // mutation; lets size() (and the occupancy gauge) skip the LRU lock.
  std::atomic<size_t> item_count_{0};
};

}  // namespace eeb::cache

#endif  // EEB_CACHE_EXACT_CACHE_H_
