// In-memory span tracing for pf-bench's traced runs. Spans are recorded by
// the benchmark's own code around each public call it makes into a layer
// of the library (nothing inside src/ is instrumented). Each span has a
// name (the layer), start and end on the monotonic clock, the span that
// caused it, and the id of the request it belongs to. Spans live in
// per-thread buffers until the run ends and are written out then.
//
// Spans record only on a thread inside an active TraceScope, so the
// untraced run — and the untraced blocks of a traced run — pay one
// thread-local flag test per call site.
#ifndef PFBENCH_TRACE_H_
#define PFBENCH_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pfbench {

struct SpanRecord {
  /// Layer name; a string literal (spans store the pointer).
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Unique within the run.
  std::int64_t id = 0;
  /// Id of the enclosing span on the same thread, -1 for a root.
  std::int64_t parent = -1;
  /// Request the span belongs to (inherited from the parent when 0).
  std::uint64_t request = 0;
};

/// Turns recording on or off for the current thread for its lifetime.
class TraceScope {
 public:
  explicit TraceScope(bool on);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  bool previous_;
};

/// True when the current thread is recording.
bool TracingOn();

/// RAII span: open on construction, closed on destruction.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_ = -1;
};

/// Parent argument of RecordSpan meaning "the current open span".
inline constexpr std::int64_t kCurrentSpan = -2;

/// Records a finished interval measured elsewhere (e.g. a hand-off whose
/// end another thread observed) under `parent` — the current open span by
/// default, -1 for a root — and returns its id (-1 when not recorded).
std::int64_t RecordSpan(const char* name, std::int64_t start_ns,
                        std::int64_t end_ns, std::uint64_t request = 0,
                        std::int64_t parent = kCurrentSpan);

/// Every span recorded so far, from all threads. Call only while no
/// thread is recording.
std::vector<SpanRecord> CollectSpans();
/// Forgets every span recorded so far (ids of later spans stay distinct
/// from theirs). Call only while no thread is recording.
void ResetSpans();
/// Spans not recorded because a thread's buffer was full.
std::size_t DroppedSpans();

/// \brief Self time of each span (index-aligned with `spans`): its
/// duration minus the part of its interval that its children cover
/// (overlapping children are counted once; children are clipped to the
/// parent).
std::vector<std::int64_t> SelfTimes(const std::vector<SpanRecord>& spans);

/// Self times in ns grouped by span name.
std::map<std::string, std::vector<std::int64_t>> SelfTimesByName(
    const std::vector<SpanRecord>& spans);

/// Writes `spans` as CSV (id,parent,request,name,start_ns,end_ns,self_ns).
bool WriteSpansCsv(const std::string& path,
                   const std::vector<SpanRecord>& spans);

}  // namespace pfbench

#endif  // PFBENCH_TRACE_H_
