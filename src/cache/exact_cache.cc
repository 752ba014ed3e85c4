#include "cache/exact_cache.h"

#include <cstring>

namespace eeb::cache {

ExactCache::ExactCache(size_t dim, size_t capacity_bytes, bool lru)
    : dim_(dim),
      capacity_items_(item_bytes() == 0 ? 0 : capacity_bytes / item_bytes()),
      lru_(lru) {}

Status ExactCache::Fill(const Dataset& data,
                        std::span<const PointId> ids_by_freq) {
  if (data.dim() != dim_) {
    return Status::InvalidArgument("dataset dim mismatch");
  }
  // Pre-publication, so the lock is uncontended; holding it lets the
  // analysis prove the fill path instead of exempting it.
  MutexLock lock(mu_);
  for (PointId id : ids_by_freq) {
    if (slot_of_.size() >= capacity_items_) break;
    if (slot_of_.count(id)) continue;
    const uint32_t slot = static_cast<uint32_t>(slot_of_.size());
    values_.resize(values_.size() + dim_);
    auto p = data.point(id);
    std::memcpy(values_.data() + static_cast<size_t>(slot) * dim_, p.data(),
                dim_ * sizeof(Scalar));
    slot_of_[id] = slot;
    if (lru_) lru_list_.Insert(id);
    item_count_.store(slot_of_.size(), std::memory_order_relaxed);
    NoteFillInsert();
  }
  return Status::OK();
}

bool ExactCache::Probe(std::span<const Scalar> q, PointId id, double* lb,
                       double* ub) {
  if (lru_) {
    // The recency touch mutates the list and a concurrent Admit may recycle
    // this slot mid-read, so the whole probe (including the distance over
    // the slot's values) holds the lock.
    MutexLock lock(mu_);
    return ProbeLocked(q, id, lb, ub);
  }
  return ProbeStatic(q, id, lb, ub);
}

bool ExactCache::ProbeLocked(std::span<const Scalar> q, PointId id,
                             double* lb, double* ub) {
  auto it = slot_of_.find(id);
  if (it == slot_of_.end()) {
    NoteMiss();
    return false;
  }
  NoteHit();
  lru_list_.Touch(id);
  std::span<const Scalar> p{
      values_.data() + static_cast<size_t>(it->second) * dim_, dim_};
  const double d = L2(q, p);
  *lb = d;
  *ub = d;
  return true;
}

// Static cache: slot table and values are immutable after Fill, which runs
// before the generation is published — the unlocked reads the suppression
// on the declaration admits race with nothing.
bool ExactCache::ProbeStatic(std::span<const Scalar> q, PointId id,
                             double* lb, double* ub) {
  auto it = slot_of_.find(id);
  if (it == slot_of_.end()) {
    NoteMiss();
    return false;
  }
  NoteHit();
  std::span<const Scalar> p{
      values_.data() + static_cast<size_t>(it->second) * dim_, dim_};
  const double d = L2(q, p);
  *lb = d;
  *ub = d;
  return true;
}

uint32_t ExactCache::SlotFor() {
  if (slot_of_.size() < capacity_items_) {
    const uint32_t slot = static_cast<uint32_t>(values_.size() / dim_);
    values_.resize(values_.size() + dim_);
    return slot;
  }
  // Evict the LRU victim and recycle its slot.
  PointId victim = lru_list_.EvictBack();
  auto it = slot_of_.find(victim);
  const uint32_t slot = it->second;
  slot_of_.erase(it);
  NoteEviction();
  return slot;
}

void ExactCache::Admit(PointId id, std::span<const Scalar> exact) {
  if (!lru_ || capacity_items_ == 0) return;
  MutexLock lock(mu_);
  auto it = slot_of_.find(id);
  if (it != slot_of_.end()) {
    lru_list_.Touch(id);
    return;
  }
  const uint32_t slot = SlotFor();
  std::memcpy(values_.data() + static_cast<size_t>(slot) * dim_, exact.data(),
              dim_ * sizeof(Scalar));
  slot_of_[id] = slot;
  lru_list_.Insert(id);
  item_count_.store(slot_of_.size(), std::memory_order_relaxed);
  NoteAdmit();
}

}  // namespace eeb::cache
