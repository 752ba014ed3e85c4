#include "cache/code_cache.h"

#include <algorithm>

namespace eeb::cache {
namespace {

uint32_t ClampValue(Scalar v, uint32_t ndom) {
  if (v < 0) return 0;
  uint32_t x = static_cast<uint32_t>(v);
  return x >= ndom ? ndom - 1 : x;
}

uint32_t TauFor(uint32_t num_buckets) {
  return std::max<uint32_t>(1, CeilLog2(num_buckets));
}

}  // namespace

void EncodeGlobal(const hist::Histogram& h, std::span<const Scalar> p,
                  std::span<BucketId> out) {
  const uint32_t ndom = h.ndom();
  for (size_t j = 0; j < p.size(); ++j) {
    out[j] = h.Lookup(ClampValue(p[j], ndom));
  }
}

void EncodeIndividual(const hist::IndividualHistograms& hs,
                      std::span<const Scalar> p, std::span<BucketId> out) {
  for (size_t j = 0; j < p.size(); ++j) {
    const hist::Histogram& h = hs.at(j);
    out[j] = h.Lookup(ClampValue(p[j], h.ndom()));
  }
}

CodeCacheBase::CodeCacheBase(size_t dim, uint32_t tau, size_t capacity_bytes,
                             bool lru)
    : dim_(dim),
      lru_(lru),
      store_(dim, tau),
      capacity_items_(store_.item_bytes() == 0
                          ? 0
                          : capacity_bytes / store_.item_bytes()) {}

std::span<BucketId> CodeCacheBase::Scratch() const {
  thread_local std::vector<BucketId> buf;
  if (buf.size() < dim_) buf.resize(dim_);
  return {buf.data(), dim_};
}

uint64_t* CodeCacheBase::WordScratch() const {
  thread_local std::vector<uint64_t> buf;
  const size_t words = WordsForBits(dim_ * tau());
  if (buf.size() < words) buf.resize(words);
  return buf.data();
}

void CodeCacheBase::LinkFront(uint32_t slot) {
  prev_[slot] = kNoSlot;
  next_[slot] = head_;
  if (head_ != kNoSlot) prev_[head_] = slot;
  head_ = slot;
  if (tail_ == kNoSlot) tail_ = slot;
}

void CodeCacheBase::Unlink(uint32_t slot) {
  const uint32_t p = prev_[slot], n = next_[slot];
  (p == kNoSlot ? head_ : next_[p]) = n;
  (n == kNoSlot ? tail_ : prev_[n]) = p;
}

// Static fill runs before the cache is published to engine threads; the
// Fill callers nevertheless hold mu_ (uncontended, once per build) so the
// analysis can prove the slot-table writes instead of suppressing them.
void CodeCacheBase::InsertStatic(PointId id, std::span<const BucketId> codes) {
  if (slot_of_.size() >= capacity_items_ || slot_of_.count(id)) return;
  const uint32_t slot = store_.AllocateSlot();
  store_.Write(slot, codes);
  slot_of_[id] = slot;
  if (lru_) {
    id_of_slot_.push_back(id);
    prev_.push_back(kNoSlot);
    next_.push_back(kNoSlot);
    LinkFront(slot);
  }
  item_count_.store(slot_of_.size(), std::memory_order_relaxed);
  NoteFillInsert();
}

void CodeCacheBase::AdmitCodes(PointId id, std::span<const BucketId> codes) {
  if (capacity_items_ == 0) return;
  uint64_t* words = WordScratch();
  CodeStore::Pack(codes, tau(), words);
  bool evicted = false;
  {
    SpinMutexLock lock(mu_);
    auto it = slot_of_.find(id);
    if (it != slot_of_.end()) {
      Unlink(it->second);
      LinkFront(it->second);
      return;
    }
    uint32_t slot;
    if (slot_of_.size() < capacity_items_) {
      slot = store_.AllocateSlot();
      id_of_slot_.push_back(id);
      prev_.push_back(kNoSlot);
      next_.push_back(kNoSlot);
    } else {
      // Recycle the least recent slot in place.
      slot = tail_;
      Unlink(slot);
      slot_of_.erase(id_of_slot_[slot]);
      id_of_slot_[slot] = id;
      evicted = true;
    }
    store_.WriteWords(slot, words);
    slot_of_.emplace(id, slot);
    LinkFront(slot);
    item_count_.store(slot_of_.size(), std::memory_order_relaxed);
  }
  if (evicted) NoteEviction();
  NoteAdmit();
}

bool CodeCacheBase::LookupCodes(PointId id, std::span<BucketId> codes) {
  if (!lru_) return LookupStatic(id, codes);
  // The recency touch and the slot read follow shared state, so they hold
  // the lock: a concurrent eviction could otherwise recycle the slot
  // mid-copy. The decode works on the copy, after the lock is released.
  uint64_t* words = WordScratch();
  bool hit;
  {
    SpinMutexLock lock(mu_);
    hit = LookupLocked(id, words);
  }
  if (!hit) {
    NoteMiss();
    return false;
  }
  NoteHit();
  CodeStore::Unpack(words, tau(), codes);
  return true;
}

bool CodeCacheBase::LookupLocked(PointId id, uint64_t* words) {
  auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return false;
  const uint32_t slot = it->second;
  if (slot != head_) {
    Unlink(slot);
    LinkFront(slot);
  }
  store_.CopyWords(slot, words);
  return true;
}

// Static cache: slot table and store are immutable after Fill, which runs
// before the generation is published to engine threads — the unlocked
// reads the suppression on the declaration admits race with nothing.
bool CodeCacheBase::LookupStatic(PointId id, std::span<BucketId> codes) {
  auto it = slot_of_.find(id);
  if (it == slot_of_.end()) {
    NoteMiss();
    return false;
  }
  NoteHit();
  store_.Read(it->second, codes);
  return true;
}

HistCodeCache::HistCodeCache(const hist::Histogram* h, size_t dim,
                             size_t capacity_bytes, bool lru, bool integral)
    : CodeCacheBase(dim, TauFor(h->num_buckets()), capacity_bytes, lru),
      hist_(h),
      integral_(integral) {}

Status HistCodeCache::Fill(const Dataset& data,
                           std::span<const PointId> ids_by_freq) {
  if (data.dim() != dim_) {
    return Status::InvalidArgument("dataset dim mismatch");
  }
  std::span<BucketId> buf = Scratch();
  // Pre-publication, so the lock is uncontended; holding it lets the
  // analysis prove the fill path instead of exempting it.
  SpinMutexLock lock(mu_);
  for (PointId id : ids_by_freq) {
    if (slot_of_.size() >= capacity_items_) break;
    EncodeGlobal(*hist_, data.point(id), buf);
    InsertStatic(id, buf);
  }
  return Status::OK();
}

bool HistCodeCache::Probe(std::span<const Scalar> q, PointId id, double* lb,
                          double* ub) {
  std::span<BucketId> codes = Scratch();
  if (!LookupCodes(id, codes)) return false;
  hist::CodeBoundsGlobal(*hist_, q, codes, lb, ub, integral_);
  return true;
}

void HistCodeCache::Admit(PointId id, std::span<const Scalar> exact) {
  if (!lru_) return;
  std::span<BucketId> codes = Scratch();
  EncodeGlobal(*hist_, exact, codes);
  AdmitCodes(id, codes);
}

IndividualCodeCache::IndividualCodeCache(const hist::IndividualHistograms* hs,
                                         uint32_t num_buckets,
                                         size_t capacity_bytes, bool lru,
                                         bool integral)
    : CodeCacheBase(hs->dim(), TauFor(num_buckets), capacity_bytes, lru),
      hists_(hs),
      integral_(integral) {}

Status IndividualCodeCache::Fill(const Dataset& data,
                                 std::span<const PointId> ids_by_freq) {
  if (data.dim() != dim_) {
    return Status::InvalidArgument("dataset dim mismatch");
  }
  std::span<BucketId> buf = Scratch();
  // Pre-publication; see HistCodeCache::Fill.
  SpinMutexLock lock(mu_);
  for (PointId id : ids_by_freq) {
    if (slot_of_.size() >= capacity_items_) break;
    EncodeIndividual(*hists_, data.point(id), buf);
    InsertStatic(id, buf);
  }
  return Status::OK();
}

bool IndividualCodeCache::Probe(std::span<const Scalar> q, PointId id,
                                double* lb, double* ub) {
  std::span<BucketId> codes = Scratch();
  if (!LookupCodes(id, codes)) return false;
  hist::CodeBoundsIndividual(*hists_, q, codes, lb, ub, integral_);
  return true;
}

void IndividualCodeCache::Admit(PointId id, std::span<const Scalar> exact) {
  if (!lru_) return;
  std::span<BucketId> codes = Scratch();
  EncodeIndividual(*hists_, exact, codes);
  AdmitCodes(id, codes);
}

}  // namespace eeb::cache
