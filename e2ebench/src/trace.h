// In-memory span tracing for the benchmark's traced run. Spans are opened
// around the benchmark's own calls into each layer (nothing inside src/
// is instrumented); each records its name, start, end, parent span and a
// request id shared by the spans of one request. Recording appends to a
// per-thread buffer, so the hot path takes no lock; the buffers are
// collected and written out once, after every recording thread has been
// joined. With tracing off a Span costs one relaxed atomic load.

#ifndef DGT_E2EBENCH_TRACE_H_
#define DGT_E2EBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

struct SpanRecord {
  const char* name = "";  // a string literal
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

void EnableTracing(bool on);
bool TracingEnabled();

class Span {
 public:
  // Parent = the innermost open span on this thread.
  explicit Span(const char* name, uint64_t request = 0);
  // Explicit parent, for a span opened on a helper thread under a span
  // that another thread holds open.
  Span(const char* name, uint64_t request, uint64_t parent);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return record_.id; }

 private:
  SpanRecord record_;
  uint64_t saved_current_ = 0;
  bool active_ = false;
};

// Every span recorded so far, ordered by start time. Call only while no
// other thread records.
std::vector<SpanRecord> CollectSpans();

// Per span name: how many spans, their summed duration, and their summed
// self time (duration minus the part of it that child spans cover).
struct SpanSummary {
  uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};
std::map<std::string, SpanSummary> SummarizeSpans(
    const std::vector<SpanRecord>& spans);
// Per root span name: how many spans its trees hold (the roots included),
// the roots' summed duration, and the summed self time of every span in
// the trees — the thread time spent with a span of the tree open.
std::map<std::string, SpanSummary> SummarizeTrees(
    const std::vector<SpanRecord>& spans);

// One JSON object per line: name, id, parent, request, start_us, end_us
// (relative to the earliest span). False when the file cannot be written.
bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path);

}  // namespace e2ebench

#endif  // DGT_E2EBENCH_TRACE_H_
