#include "tracing.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {
namespace {

thread_local QueryTrace* t_current = nullptr;

// Times one call into a layer on behalf of the calling thread's query.
class CallScope {
 public:
  explicit CallScope(Layer layer) : trace_(t_current), layer_(layer) {
    if (trace_ == nullptr) return;
    start_ns_ = NowNs();
    if (trace_->depth++ == 0) {
      trace_->self_ns += start_ns_ - trace_->cursor_ns;
    } else {
      trace_->nested_calls++;
    }
  }
  ~CallScope() {
    if (trace_ == nullptr) return;
    const int64_t end = NowNs();
    LayerCalls& calls = trace_->layer[layer_];
    if (calls.calls++ == 0) calls.first_start_ns = start_ns_;
    calls.last_end_ns = end;
    calls.busy_ns += end - start_ns_;
    if (--trace_->depth == 0) trace_->cursor_ns = end;
  }
  CallScope(const CallScope&) = delete;
  CallScope& operator=(const CallScope&) = delete;

  QueryTrace* trace() const { return trace_; }

 private:
  QueryTrace* const trace_;
  const Layer layer_;
  int64_t start_ns_ = 0;
};

class TracedFile : public eeb::storage::RandomAccessFile {
 public:
  TracedFile(std::unique_ptr<eeb::storage::RandomAccessFile> base,
             size_t page_size)
      : base_(std::move(base)), page_size_(page_size) {}

  eeb::Status Read(uint64_t offset, size_t n, char* scratch) const override {
    CallScope scope(kRead);
    if (QueryTrace* t = scope.trace(); t != nullptr && n > 0) {
      t->read_bytes += n;
      for (uint64_t p = offset / page_size_; p <= (offset + n - 1) / page_size_;
           ++p) {
        t->pages.push_back(p);
      }
    }
    return base_->Read(offset, n, scratch);
  }
  uint64_t Size() const override { return base_->Size(); }

 private:
  const std::unique_ptr<eeb::storage::RandomAccessFile> base_;
  const size_t page_size_;
};

}  // namespace

void QueryTrace::Begin(uint64_t query_id) {
  std::vector<uint64_t> reuse = std::move(pages);  // keeps its capacity
  *this = QueryTrace{};
  pages = std::move(reuse);
  pages.clear();
  query = query_id;
  start_ns = NowNs();
  cursor_ns = start_ns;
  t_current = this;
}

void QueryTrace::End() {
  t_current = nullptr;
  end_ns = NowNs();
  self_ns += end_ns - cursor_ns;
}

uint64_t QueryTrace::DistinctPages() {
  std::sort(pages.begin(), pages.end());
  return static_cast<uint64_t>(
      std::unique(pages.begin(), pages.end()) - pages.begin());
}

void AppendSpans(const QueryTrace& t, std::vector<SpanRecord>* out) {
  out->push_back({t.query, -1, t.start_ns, t.end_ns, t.self_ns, 1});
  for (int l = 0; l < kNumLayers; ++l) {
    const LayerCalls& c = t.layer[l];
    if (c.calls == 0) continue;
    out->push_back(
        {t.query, l, c.first_start_ns, c.last_end_ns, c.busy_ns, c.calls});
  }
}

bool WriteSpans(const std::string& path,
                const std::vector<SpanRecord>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : spans) {
    const uint64_t parent = s.query * 8;
    const uint64_t id = parent + static_cast<uint64_t>(s.layer + 1);
    const char* name = s.layer < 0 ? kQuerySpanName : kLayerSpanNames[s.layer];
    if (s.layer < 0) {
      std::fprintf(f, "{\"id\":%llu,\"parent\":null,", (unsigned long long)id);
    } else {
      std::fprintf(f, "{\"id\":%llu,\"parent\":%llu,", (unsigned long long)id,
                   (unsigned long long)parent);
    }
    std::fprintf(f,
                 "\"query\":%llu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"busy_ns\":%lld,\"calls\":%llu}\n",
                 (unsigned long long)s.query, name, (long long)s.start_ns,
                 (long long)s.end_ns, (long long)s.busy_ns,
                 (unsigned long long)s.calls);
  }
  return std::fclose(f) == 0;
}

eeb::Status TracedIndex::Candidates(std::span<const eeb::Scalar> q, size_t k,
                                    std::vector<eeb::PointId>* out,
                                    eeb::storage::IoStats* stats) {
  const uint64_t probes_before = stats != nullptr ? stats->page_reads : 0;
  CallScope scope(kIndex);
  eeb::Status s = base_->Candidates(q, k, out, stats);
  if (QueryTrace* t = scope.trace(); t != nullptr) {
    t->candidates += out->size();
    if (stats != nullptr) t->bucket_probes += stats->page_reads - probes_before;
  }
  return s;
}

bool TracedCache::Probe(std::span<const eeb::Scalar> q, eeb::PointId id,
                        double* lb, double* ub) {
  CallScope scope(kProbe);
  const bool hit = base_->Probe(q, id, lb, ub);
  if (QueryTrace* t = scope.trace(); t != nullptr && hit) t->cache_hits++;
  return hit;
}

void TracedCache::Admit(eeb::PointId id, std::span<const eeb::Scalar> exact) {
  CallScope scope(kAdmit);
  base_->Admit(id, exact);
}

eeb::Status TracedEnv::NewRandomAccessFile(
    const std::string& path,
    std::unique_ptr<eeb::storage::RandomAccessFile>* out) {
  std::unique_ptr<eeb::storage::RandomAccessFile> base;
  eeb::Status s = base_->NewRandomAccessFile(path, &base);
  if (!s.ok()) return s;
  *out = std::make_unique<TracedFile>(std::move(base), page_size_);
  return eeb::Status::OK();
}

}  // namespace perfbench
