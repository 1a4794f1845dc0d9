#include "trace.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "bench.h"

namespace e2ebench {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};

// Per-thread buffers, owned here so they outlive the threads that filled
// them; registration is the only locked step.
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<std::vector<SpanRecord>>> g_buffers;

thread_local std::vector<SpanRecord>* t_buffer = nullptr;
thread_local uint64_t t_current = 0;

std::vector<SpanRecord>* ThreadBuffer() {
  if (t_buffer == nullptr) {
    auto buffer = std::make_unique<std::vector<SpanRecord>>();
    buffer->reserve(4096);
    t_buffer = buffer.get();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::move(buffer));
  }
  return t_buffer;
}

}  // namespace

void EnableTracing(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool TracingEnabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name, uint64_t request)
    : Span(name, request, t_current) {}

Span::Span(const char* name, uint64_t request, uint64_t parent) {
  if (!TracingEnabled()) return;
  active_ = true;
  record_.name = name;
  record_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent = parent;
  record_.request = request;
  saved_current_ = t_current;
  t_current = record_.id;
  record_.start_ns = NowNs();
}

Span::~Span() {
  if (!active_) return;
  record_.end_ns = NowNs();
  t_current = saved_current_;
  ThreadBuffer()->push_back(record_);
}

std::vector<SpanRecord> CollectSpans() {
  std::vector<SpanRecord> all;
  {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    for (const auto& buffer : g_buffers) {
      all.insert(all.end(), buffer->begin(), buffer->end());
    }
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.id < b.id;
            });
  return all;
}

namespace {

// Self time of each span (aligned with `spans`): its duration minus the
// union of its children's intervals, each clipped to the parent.
std::vector<double> SelfTimes(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, const SpanRecord*> by_id;
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const SpanRecord& s : spans) by_id[s.id] = &s;
  for (const SpanRecord& s : spans) {
    auto parent = by_id.find(s.parent);
    if (parent == by_id.end()) continue;
    const int64_t lo = std::max(s.start_ns, parent->second->start_ns);
    const int64_t hi = std::min(s.end_ns, parent->second->end_ns);
    if (hi > lo) children[s.parent].emplace_back(lo, hi);
  }
  std::vector<double> self;
  self.reserve(spans.size());
  for (const SpanRecord& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t run_lo = intervals.front().first;
      int64_t run_hi = intervals.front().second;
      for (const auto& [lo, hi] : intervals) {
        if (lo > run_hi) {
          covered += run_hi - run_lo;
          run_lo = lo;
          run_hi = hi;
        } else {
          run_hi = std::max(run_hi, hi);
        }
      }
      covered += run_hi - run_lo;
    }
    self.push_back(static_cast<double>(s.end_ns - s.start_ns - covered));
  }
  return self;
}

}  // namespace

std::map<std::string, SpanSummary> SummarizeSpans(
    const std::vector<SpanRecord>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, SpanSummary> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanSummary& summary = out[spans[i].name];
    ++summary.count;
    summary.total_ns += static_cast<double>(spans[i].end_ns -
                                            spans[i].start_ns);
    summary.self_ns += self[i];
  }
  return out;
}

std::map<std::string, SpanSummary> SummarizeTrees(
    const std::vector<SpanRecord>& spans) {
  // `spans` is ordered by start time, and a parent opens before its
  // children (ties broken by the older id), so a parent's root is known
  // before any child's.
  const std::vector<double> self = SelfTimes(spans);
  std::unordered_map<uint64_t, const SpanRecord*> root_of;
  std::map<std::string, SpanSummary> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    auto parent = root_of.find(s.parent);
    const SpanRecord* root = parent == root_of.end() ? &s : parent->second;
    root_of[s.id] = root;
    SpanSummary& summary = out[root->name];
    ++summary.count;
    if (root == &s) {
      summary.total_ns += static_cast<double>(s.end_ns - s.start_ns);
    }
    summary.self_ns += self[i];
  }
  return out;
}

bool WriteSpans(const std::vector<SpanRecord>& spans,
                const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const SpanRecord& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"start_us\":" << (s.start_ns - origin) / 1000
        << ",\"end_us\":" << (s.end_ns - origin) / 1000 << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace e2ebench
