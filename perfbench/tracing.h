// Tracing decorators the benchmark owns. Each wraps one layer's public
// interface (index::CandidateIndex, cache::KnnCache, storage::Env) and,
// while a client thread has a QueryTrace installed, times every call into
// it. With no trace installed the decorators only forward.
//
// Per-candidate calls (cache probes and admits, page reads) are folded into
// one span per query and layer that carries a call count and the summed busy
// time. The core layer's self time is measured as the part of the query span
// that no child call covers, so the sum of the layers' self times reconciles
// with the query span only if the child calls are disjoint.

#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/knn_cache.h"
#include "index/candidate_index.h"
#include "storage/env.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Child layers of a query span, in span-id order after the query span.
enum Layer : int { kIndex = 0, kProbe, kAdmit, kRead, kNumLayers };

/// Span names as they appear in the span dump.
inline constexpr const char* kQuerySpanName = "core.query";
inline constexpr const char* kLayerSpanNames[kNumLayers] = {
    "index.candidates", "cache.probe", "cache.admit", "storage.read"};

/// Calls into one layer during one query, folded.
struct LayerCalls {
  int64_t first_start_ns = 0;
  int64_t last_end_ns = 0;
  int64_t busy_ns = 0;
  uint64_t calls = 0;
};

/// Everything the decorators record about one query.
struct QueryTrace {
  uint64_t query = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t self_ns = 0;  ///< query span time not covered by any child call
  LayerCalls layer[kNumLayers];
  uint64_t nested_calls = 0;  ///< child calls made inside another child call
  uint64_t candidates = 0;
  uint64_t bucket_probes = 0;
  uint64_t cache_hits = 0;
  uint64_t read_bytes = 0;
  std::vector<uint64_t> pages;  ///< page numbers of every read, unsorted

  /// Installs this record as the calling thread's current query.
  void Begin(uint64_t query_id);
  /// Closes the query span and uninstalls the record.
  void End();
  /// Distinct pages among `pages`.
  uint64_t DistinctPages();

  // Bookkeeping of the decorator calls in flight.
  int depth = 0;
  int64_t cursor_ns = 0;  // end of the last top-level child call
};

/// One span of the dump. `busy_ns` is the summed call time for a child
/// layer and the self time for the query span.
struct SpanRecord {
  uint64_t query = 0;
  int layer = -1;  ///< -1 for the query span, else a Layer
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t busy_ns = 0;
  uint64_t calls = 0;
};

/// Appends the query span and one span per layer called.
void AppendSpans(const QueryTrace& t, std::vector<SpanRecord>* out);

/// Writes spans as JSON lines: id, parent, query, name, start, end, busy,
/// calls. Span ids are query * 8 + (layer + 1); children name their query
/// span as parent.
bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans);

class TracedIndex : public eeb::index::CandidateIndex {
 public:
  explicit TracedIndex(eeb::index::CandidateIndex* base) : base_(base) {}
  eeb::Status Candidates(std::span<const eeb::Scalar> q, size_t k,
                         std::vector<eeb::PointId>* out,
                         eeb::storage::IoStats* stats) override;
  std::string name() const override { return base_->name(); }

 private:
  eeb::index::CandidateIndex* const base_;
};

class TracedCache : public eeb::cache::KnnCache {
 public:
  explicit TracedCache(eeb::cache::KnnCache* base) : base_(base) {}
  bool Probe(std::span<const eeb::Scalar> q, eeb::PointId id, double* lb,
             double* ub) override;
  void Admit(eeb::PointId id, std::span<const eeb::Scalar> exact) override;
  size_t item_bytes() const override { return base_->item_bytes(); }
  size_t size() const override { return base_->size(); }
  size_t capacity_items() const override { return base_->capacity_items(); }

 private:
  eeb::cache::KnnCache* const base_;
};

class TracedEnv : public eeb::storage::Env {
 public:
  TracedEnv(eeb::storage::Env* base, size_t page_size)
      : base_(base), page_size_(page_size) {}
  eeb::Status NewRandomAccessFile(
      const std::string& path,
      std::unique_ptr<eeb::storage::RandomAccessFile>* out) override;
  eeb::Status NewWritableFile(
      const std::string& path,
      std::unique_ptr<eeb::storage::WritableFile>* out) override {
    return base_->NewWritableFile(path, out);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  eeb::Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }

 private:
  eeb::storage::Env* const base_;
  const size_t page_size_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
