// Histogram-code caches (the paper's proposal, Sec. 3): each cached item is
// the bit-packed approximate point p' — one tau-bit bucket position per
// dimension. A probe decodes the codes and returns the dist-/dist+ interval.
//
// Two flavors share the implementation:
//   HistCodeCache       — one global histogram H (HC-W/HC-D/HC-V/HC-O),
//   IndividualCodeCache — d per-dimension histograms (iHC-*); also used to
//                         realize the C-VA baseline (VA-file = per-dimension
//                         equi-depth encoding of all points).
//
// Concurrency (docs/CONCURRENCY.md): a statically filled (HFF) cache is
// immutable after Fill, so probes are lock-free — they only touch the
// read-only slot table / code store plus the per-thread counter shards and
// a thread_local decode buffer. Under the LRU policy probes and admissions
// mutate the slot table, recency list and store, so they serialize behind
// `mu_`. The critical section is kept to the slot lookup, an O(1) recency
// relink and a copy of the packed words: encoding, packing and decoding run
// outside it, and a full cache recycles its victim's slot in place.

#ifndef EEB_CACHE_CODE_CACHE_H_
#define EEB_CACHE_CODE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/dataset.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "cache/code_store.h"
#include "cache/knn_cache.h"
#include "hist/bounds.h"
#include "hist/histogram.h"
#include "hist/individual.h"

namespace eeb::cache {

/// Encodes an exact point into global-histogram bucket positions (Def. 8).
/// Coordinates are clamped into [0, ndom).
void EncodeGlobal(const hist::Histogram& h, std::span<const Scalar> p,
                  std::span<BucketId> out);

/// Encodes an exact point under per-dimension histograms.
void EncodeIndividual(const hist::IndividualHistograms& hs,
                      std::span<const Scalar> p, std::span<BucketId> out);

/// Common machinery of the two code caches.
class CodeCacheBase : public KnnCache {
 public:
  /// Immutable store config (fixed at construction); reading it through
  /// the mu_-guarded store_ member is lock-free by that invariant.
  size_t item_bytes() const override EEB_NO_THREAD_SAFETY_ANALYSIS {
    return store_.item_bytes();
  }
  /// Items currently cached. Reads an atomic count maintained under `mu_`,
  /// so it is safe to call concurrently with LRU probes/admissions (the
  /// occupancy gauge publishes it once per query).
  size_t size() const override {
    return item_count_.load(std::memory_order_relaxed);
  }
  size_t capacity_items() const override { return capacity_items_; }
  /// Immutable store config, same invariant as item_bytes().
  uint32_t tau() const EEB_NO_THREAD_SAFETY_ANALYSIS {
    return store_.bits_per_code();
  }

 protected:
  CodeCacheBase(size_t dim, uint32_t tau, size_t capacity_bytes, bool lru);

  /// Inserts codes for `id` (static fill path). No-op when full or present.
  void InsertStatic(PointId id, std::span<const BucketId> codes)
      EEB_REQUIRES(mu_);

  /// LRU admission of codes for `id`. Takes `mu_`.
  void AdmitCodes(PointId id, std::span<const BucketId> codes)
      EEB_EXCLUDES(mu_);

  /// Looks up `id`; on hit decodes into `codes` (dim_ entries) and returns
  /// true. Lock-free on static caches; under LRU it takes `mu_` for the
  /// recency touch and a copy of the slot's words, and decodes the copy
  /// after releasing it.
  bool LookupCodes(PointId id, std::span<BucketId> codes) EEB_EXCLUDES(mu_);

  /// Thread-local decode/encode scratch of dim_ entries, shared across
  /// cache instances (contents never outlive one call).
  std::span<BucketId> Scratch() const;

  /// Thread-local packed-word scratch of one item, like Scratch().
  uint64_t* WordScratch() const;

  SpinMutex mu_;  // guards the slot table / store / recency list (see below)
  const size_t dim_;
  const bool lru_;

 private:
  /// LRU lookup: under `mu_`, finds the slot, makes it most recent and
  /// copies its packed words into `words`. False on a miss.
  bool LookupLocked(PointId id, uint64_t* words) EEB_REQUIRES(mu_);

  // The recency list is doubly linked through slot indexes (prev_/next_),
  // so a touch or an eviction relinks array entries: no hashing, no
  // allocation.
  void LinkFront(uint32_t slot) EEB_REQUIRES(mu_);
  void Unlink(uint32_t slot) EEB_REQUIRES(mu_);

  /// Static (HFF) lookup. Invariant that makes the suppression sound: a
  /// statically filled cache is immutable after Fill — ConfigureCache
  /// builds the whole generation before publishing it to engine threads
  /// (core/system.cc), so these unlocked reads race with nothing.
  bool LookupStatic(PointId id, std::span<BucketId> codes)
      EEB_NO_THREAD_SAFETY_ANALYSIS;

 protected:
  CodeStore store_ EEB_GUARDED_BY(mu_);
  std::unordered_map<PointId, uint32_t> slot_of_ EEB_GUARDED_BY(mu_);
  // LRU only, indexed by slot: the cached id and the recency links.
  std::vector<PointId> id_of_slot_ EEB_GUARDED_BY(mu_);
  std::vector<uint32_t> prev_ EEB_GUARDED_BY(mu_);
  std::vector<uint32_t> next_ EEB_GUARDED_BY(mu_);
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  uint32_t head_ EEB_GUARDED_BY(mu_) = kNoSlot;  // most recent
  uint32_t tail_ EEB_GUARDED_BY(mu_) = kNoSlot;  // next victim
  // Mirror of slot_of_.size(), refreshed under mu_ at the end of every
  // mutation; lets size() (and the per-query occupancy gauge behind it)
  // read occupancy without taking the LRU lock.
  std::atomic<size_t> item_count_{0};
  const size_t capacity_items_;
};

/// Cache of codes under one global histogram.
class HistCodeCache : public CodeCacheBase {
 public:
  /// The histogram must outlive the cache. `integral` asserts that data
  /// coordinates are integers, enabling the paper-exact tight interval
  /// edges (see hist/bounds.h).
  HistCodeCache(const hist::Histogram* h, size_t dim, size_t capacity_bytes,
                bool lru = false, bool integral = false);

  /// Static HFF fill in the given (frequency-descending) id order.
  Status Fill(const Dataset& data, std::span<const PointId> ids_by_freq);

  bool Probe(std::span<const Scalar> q, PointId id, double* lb,
             double* ub) override;

  void Admit(PointId id, std::span<const Scalar> exact) override;

  const hist::Histogram& histogram() const { return *hist_; }

 private:
  const hist::Histogram* hist_;
  bool integral_;
};

/// Cache of codes under per-dimension histograms.
class IndividualCodeCache : public CodeCacheBase {
 public:
  IndividualCodeCache(const hist::IndividualHistograms* hs,
                      uint32_t num_buckets, size_t capacity_bytes,
                      bool lru = false, bool integral = false);

  Status Fill(const Dataset& data, std::span<const PointId> ids_by_freq);

  bool Probe(std::span<const Scalar> q, PointId id, double* lb,
             double* ub) override;

  void Admit(PointId id, std::span<const Scalar> exact) override;

 private:
  const hist::IndividualHistograms* hists_;
  bool integral_;
};

}  // namespace eeb::cache

#endif  // EEB_CACHE_CODE_CACHE_H_
