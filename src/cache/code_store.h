// Bit-packed storage for cached code words ("exploit every bit", paper
// Sec. 3.1 footnote 5): each cached item is `codes_per_item` fields of
// `bits_per_code` bits packed into consecutive 64-bit words. Slots are
// fixed-size so caches can recycle them under LRU eviction.

#ifndef EEB_CACHE_CODE_STORE_H_
#define EEB_CACHE_CODE_STORE_H_

#include <algorithm>
#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/bitops.h"
#include "common/types.h"

namespace eeb::cache {

/// Slot-addressed array of packed code tuples.
class CodeStore {
 public:
  /// @param codes_per_item  number of fields per item (d for per-dimension
  ///                        codes, 1 for multi-dimensional histogram codes)
  /// @param bits_per_code   tau, in [1, 32]
  CodeStore(size_t codes_per_item, uint32_t bits_per_code)
      : codes_per_item_(codes_per_item),
        bits_per_code_(bits_per_code),
        words_per_item_(WordsForBits(codes_per_item * bits_per_code)) {}

  /// Bytes occupied by one item (whole words, as packed in memory).
  size_t item_bytes() const { return words_per_item_ * sizeof(uint64_t); }

  size_t codes_per_item() const { return codes_per_item_; }
  uint32_t bits_per_code() const { return bits_per_code_; }

  /// Number of allocated slots.
  size_t num_slots() const {
    return words_per_item_ == 0 ? 0 : words_.size() / words_per_item_;
  }

  /// Appends a new zeroed slot and returns its index.
  uint32_t AllocateSlot() {
    const uint32_t slot = static_cast<uint32_t>(num_slots());
    words_.resize(words_.size() + words_per_item_, 0);
    return slot;
  }

  /// Words one item occupies.
  size_t words_per_item() const { return words_per_item_; }

  /// Overwrites slot contents with the given codes.
  void Write(uint32_t slot, std::span<const BucketId> codes) {
    Pack(codes, bits_per_code_, SlotWords(slot));
  }

  /// Overwrites slot contents with words made by Pack.
  void WriteWords(uint32_t slot, const uint64_t* words) {
    std::copy_n(words, words_per_item_, SlotWords(slot));
  }

  /// Decodes slot contents into `out` (must have codes_per_item entries).
  void Read(uint32_t slot, std::span<BucketId> out) const {
    Unpack(SlotWords(slot), bits_per_code_, out);
  }

  /// Copies the packed words of `slot` into `out` (words_per_item entries),
  /// for a caller that decodes them with Unpack after releasing a lock.
  void CopyWords(uint32_t slot, uint64_t* out) const {
    std::copy_n(SlotWords(slot), words_per_item_, out);
  }

  /// Packs `codes` at `bits` each into `out`, which must hold
  /// WordsForBits(codes.size() * bits) words.
  static void Pack(std::span<const BucketId> codes, uint32_t bits,
                   uint64_t* out) {
    std::fill_n(out, WordsForBits(codes.size() * bits), 0);
    size_t bit = 0;
    for (const BucketId code : codes) {
      const size_t word = bit >> 6;
      const unsigned shift = bit & 63;
      const uint64_t value = code;
      out[word] |= value << shift;
      if (shift + bits > 64) out[word + 1] |= value >> (64 - shift);
      bit += bits;
    }
  }

  /// Inverse of Pack: decodes out.size() codes of `bits` each.
  static void Unpack(const uint64_t* words, uint32_t bits,
                     std::span<BucketId> out) {
    size_t bit = 0;
    for (BucketId& code : out) {
      code = static_cast<BucketId>(UnpackBits(words, bit, bits));
      bit += bits;
    }
  }

 private:
  uint64_t* SlotWords(uint32_t slot) {
    return words_.data() + static_cast<size_t>(slot) * words_per_item_;
  }
  const uint64_t* SlotWords(uint32_t slot) const {
    return words_.data() + static_cast<size_t>(slot) * words_per_item_;
  }

  size_t codes_per_item_;
  uint32_t bits_per_code_;
  size_t words_per_item_;
  std::vector<uint64_t> words_;
};

/// Simple LRU bookkeeping over point ids.
class LruTracker {
 public:
  /// Inserts id at the front (most recent). Id must not be present.
  void Insert(PointId id) {
    order_.push_front(id);
    pos_[id] = order_.begin();
  }

  /// Moves an existing id to the front.
  void Touch(PointId id) {
    auto it = pos_.find(id);
    if (it == pos_.end()) return;
    order_.splice(order_.begin(), order_, it->second);
  }

  /// Removes and returns the least recently used id.
  PointId EvictBack() {
    PointId victim = order_.back();
    order_.pop_back();
    pos_.erase(victim);
    return victim;
  }

  void Erase(PointId id) {
    auto it = pos_.find(id);
    if (it == pos_.end()) return;
    order_.erase(it->second);
    pos_.erase(it);
  }

  bool Contains(PointId id) const { return pos_.count(id) > 0; }
  size_t size() const { return pos_.size(); }

 private:
  std::list<PointId> order_;
  std::unordered_map<PointId, std::list<PointId>::iterator> pos_;
};

}  // namespace eeb::cache

#endif  // EEB_CACHE_CODE_STORE_H_
