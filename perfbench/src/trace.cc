#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "stats.h"

namespace pfbench {
namespace {

/// Per-thread span capacity; spans beyond it are counted as dropped.
constexpr std::size_t kThreadCapacity = 1u << 19;

struct ThreadBuffer {
  std::int64_t thread_tag = 0;
  /// Spans recorded before the last ResetSpans, so ids stay unique.
  std::int64_t base = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::int64_t> open;  // Indices of open spans, innermost last.
  bool on = false;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::atomic<std::size_t> dropped{0};
};

Registry& GlobalRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

ThreadBuffer& Local() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    Registry& r = GlobalRegistry();
    std::lock_guard<std::mutex> lock(r.mutex);
    b->thread_tag = static_cast<std::int64_t>(r.buffers.size()) << 32;
    r.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

/// Appends an open record; returns its index or -1 when full.
std::int64_t Open(ThreadBuffer& b, const char* name, std::int64_t start,
                  std::uint64_t request) {
  if (b.spans.size() >= kThreadCapacity) {
    GlobalRegistry().dropped.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  if (b.spans.capacity() == 0) b.spans.reserve(1u << 14);
  SpanRecord rec;
  rec.name = name;
  rec.start_ns = start;
  rec.id = b.thread_tag | (b.base + static_cast<std::int64_t>(b.spans.size()));
  if (!b.open.empty()) {
    const SpanRecord& parent = b.spans[static_cast<std::size_t>(b.open.back())];
    rec.parent = parent.id;
    if (request == 0) request = parent.request;
  }
  rec.request = request;
  b.spans.push_back(rec);
  return static_cast<std::int64_t>(b.spans.size()) - 1;
}

}  // namespace

TraceScope::TraceScope(bool on) : previous_(Local().on) { Local().on = on; }
TraceScope::~TraceScope() { Local().on = previous_; }

bool TracingOn() { return Local().on; }

Span::Span(const char* name, std::uint64_t request) {
  ThreadBuffer& b = Local();
  if (!b.on) return;
  index_ = Open(b, name, NowNs(), request);
  if (index_ >= 0) b.open.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  ThreadBuffer& b = Local();
  b.spans[static_cast<std::size_t>(index_)].end_ns = NowNs();
  b.open.pop_back();
}

std::int64_t RecordSpan(const char* name, std::int64_t start_ns,
                        std::int64_t end_ns, std::uint64_t request,
                        std::int64_t parent) {
  ThreadBuffer& b = Local();
  if (!b.on) return -1;
  const std::int64_t index = Open(b, name, start_ns, request);
  if (index < 0) return -1;
  SpanRecord& rec = b.spans[static_cast<std::size_t>(index)];
  rec.end_ns = end_ns;
  if (parent != kCurrentSpan) rec.parent = parent;
  return rec.id;
}

std::vector<SpanRecord> CollectSpans() {
  Registry& r = GlobalRegistry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<SpanRecord> all;
  for (const auto& b : r.buffers) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

void ResetSpans() {
  Registry& r = GlobalRegistry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (const auto& b : r.buffers) {
    b->base += static_cast<std::int64_t>(b->spans.size());
    b->spans.clear();
  }
  r.dropped.store(0, std::memory_order_relaxed);
}

std::size_t DroppedSpans() {
  return GlobalRegistry().dropped.load(std::memory_order_relaxed);
}

std::vector<std::int64_t> SelfTimes(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::int64_t, std::size_t> index_of;
  index_of.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent < 0) continue;
    auto it = index_of.find(s.parent);
    if (it != index_of.end()) {
      children[it->second].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = lo;  // Everything before `reach` is counted.
    for (const auto& [start, end] : kids) {
      const std::int64_t a = std::max(start, reach);
      const std::int64_t b = std::min(end, hi);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    self[i] = std::max<std::int64_t>(0, hi - lo - covered);
  }
  return self;
}

std::map<std::string, std::vector<std::int64_t>> SelfTimesByName(
    const std::vector<SpanRecord>& spans) {
  const std::vector<std::int64_t> self = SelfTimes(spans);
  std::map<std::string, std::vector<std::int64_t>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_name[spans[i].name].push_back(self[i]);
  }
  return by_name;
}

bool WriteSpansCsv(const std::string& path,
                   const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<std::int64_t> self = SelfTimes(spans);
  std::fprintf(f, "id,parent,request,name,start_ns,end_ns,self_ns\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f, "%lld,%lld,%llu,%s,%lld,%lld,%lld\n",
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace pfbench
