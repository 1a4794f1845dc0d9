// Stages serve_read and serve_live: reputation reads over the loopback
// RPC front-end.
//
// serve_read: the frozen serve_read service behind an RpcServer; closed-
// loop connections send point, batch and top-k reads in an 8:1:1 mix and
// no updates (a frozen service acknowledges updates it never folds, so
// they would measure nothing). Every reply is compared bitwise with an
// independent in-process replay of the same set-up schedule, every score
// row is fetched and compared once more after the load, and the server's
// per-type request counters must equal the client's sent counts.
//
// serve_live: a free-running service behind its own RpcServer; reader
// connections and one writer send on fixed open-loop schedules. Each
// request is timed from when it was due. Freshness is the time from an
// update's OK reply to the first read reply whose epoch has folded it:
// with one writer, epoch e contains update k iff the epoch's snapshot has
// trust_updates_folded >= k, which a poller thread samples from the
// service for every epoch.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "echo.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "serve/query.h"
#include "trace.h"

namespace e2ebench {
namespace {

using dgt::NodeId;
using dgt::ReputationSnapshot;
using dgt::rpc::RpcClient;

constexpr int kConnectRetryMs = 5000;
// Request ops in one 10-request block: 8 point, 1 batch, 1 top-k.
constexpr int kMixBlock = 10;
enum Op { kPoint = 0, kBatch = 1, kTopKOp = 2 };
constexpr const char* kOpSpans[3] = {"rpc.point", "rpc.batch", "rpc.topk"};
// Latency, throughput and freshness are computed per time window and
// reported as the median over the windows, so a burst of load from outside
// the benchmark that hits one window does not move the run's figure.
constexpr uint32_t kWindows = 5;
// Length of each echo calibration around serve_read's reads.
constexpr double kEchoSeconds = 0.3;
// Values kept per window and stream. A closed-loop serve_read connection
// completes tens of thousands of reads per window; a sample this size
// puts the p50 and p99 ranks within a fraction of a percent.
constexpr uint32_t kWindowSamples = 16384;

// One stream's timed observations, binned into kWindows equal windows of
// [start, end). Each window counts every value offered and keeps a uniform
// random sample of at most kWindowSamples of them (reservoir sampling).
// The buffers are allocated and written when the stream is made, before
// the stage starts, so the driver's memory — and peak_rss_mb — does not
// grow with the throughput of the system under test.
class WindowedSamples {
 public:
  WindowedSamples(int64_t start_ns, int64_t end_ns, uint64_t seed)
      : start_ns_(start_ns),
        width_ns_(static_cast<double>(end_ns - start_ns) / kWindows),
        rng_(seed),
        counts_(kWindows, 0),
        values_(kWindows, std::vector<double>(kWindowSamples, 0.0)) {}

  // Values timed outside [start, end) are dropped.
  void Add(int64_t t_ns, double value) {
    if (t_ns < start_ns_) return;
    const auto w = static_cast<size_t>(
        static_cast<double>(t_ns - start_ns_) / width_ns_);
    if (w >= kWindows) return;
    const uint64_t seen = counts_[w]++;
    if (seen < kWindowSamples) {
      values_[w][seen] = value;
    } else if (const uint64_t slot = rng_.NextBelow(seen + 1);
               slot < kWindowSamples) {
      values_[w][slot] = value;
    }
  }

  double width_ns() const { return width_ns_; }
  uint64_t count(size_t w) const { return counts_[w]; }
  // The window's kept values (all of them while it has at most
  // kWindowSamples).
  std::vector<double> kept(size_t w) const {
    const auto& v = values_[w];
    return {v.begin(), v.begin() + static_cast<std::ptrdiff_t>(std::min<
                                       uint64_t>(counts_[w], kWindowSamples))};
  }

 private:
  int64_t start_ns_;
  double width_ns_;
  dgt::Rng rng_;
  std::vector<uint64_t> counts_;
  std::vector<std::vector<double>> values_;
};

// Median over the windows of stat(kept values, offered count, width in
// ns), the windows' values pooled across `streams` (which share their
// windows); windows without values are skipped. Streams of equal rate —
// the stages' connections — contribute equally to a pooled sample.
template <typename Stat>
double WindowMedian(const std::vector<const WindowedSamples*>& streams,
                    Stat stat) {
  std::vector<double> per_window;
  for (size_t w = 0; w < kWindows; ++w) {
    std::vector<double> values;
    uint64_t count = 0;
    for (const WindowedSamples* s : streams) {
      const std::vector<double> kept = s->kept(w);
      values.insert(values.end(), kept.begin(), kept.end());
      count += s->count(w);
    }
    if (!values.empty()) {
      per_window.push_back(
          stat(std::move(values), count, streams.front()->width_ns()));
    }
  }
  return Median(std::move(per_window));
}

double WindowPercentile(const std::vector<const WindowedSamples*>& streams,
                        double p) {
  return WindowMedian(streams, [p](std::vector<double> v, uint64_t, double) {
    return Percentile(std::move(v), p);
  });
}

Op OpAt(uint64_t seq) {
  const uint64_t slot = seq % kMixBlock;
  return slot < 8 ? kPoint : (slot == 8 ? kBatch : kTopKOp);
}

bool SameScore(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

uint64_t CounterOr0(const dgt::obs::MetricsSnapshot& m,
                    const std::string& name) {
  auto it = m.counters.find(name);
  return it == m.counters.end() ? 0 : it->second;
}

dgt::obs::HistogramSnapshot Histogram(const dgt::obs::MetricsSnapshot& m,
                                      const std::string& name) {
  auto it = m.histograms.find(name);
  return it == m.histograms.end() ? dgt::obs::HistogramSnapshot{}
                                  : it->second;
}

// The server's registry over the stats RPC.
dgt::Result<dgt::obs::MetricsSnapshot> FetchServerMetrics(uint16_t port) {
  DGT_ASSIGN_OR_RETURN(RpcClient client,
                       RpcClient::Connect(port, kConnectRetryMs));
  DGT_ASSIGN_OR_RETURN(dgt::rpc::StatsResponse stats, client.FetchStats());
  return dgt::rpc::MetricsFromStats(stats);
}

// One read's request ids and reply.
struct ReadReply {
  uint64_t epoch = 0;
  NodeId observer = 0;
  std::vector<NodeId> targets;  // point: 1 target; top-k: reply ids
  std::vector<double> scores;
};

// Sends one read of type `op` over `rpc` with ids drawn from `rng`;
// returns whether the call succeeded and fills *out.
bool IssueRead(RpcClient* rpc, Op op, uint32_t n, dgt::Rng* rng,
               ReadReply* out) {
  out->observer = static_cast<NodeId>(rng->NextBelow(n));
  out->targets.clear();
  out->scores.clear();
  switch (op) {
    case kPoint: {
      out->targets.push_back(static_cast<NodeId>(rng->NextBelow(n)));
      auto r = rpc->QueryPoint(out->observer, out->targets[0]);
      if (!r.ok()) return false;
      out->epoch = r->epoch;
      out->scores.push_back(r->score);
      return true;
    }
    case kBatch: {
      for (uint32_t t = 0; t < kBatchTargets; ++t) {
        out->targets.push_back(static_cast<NodeId>(rng->NextBelow(n)));
      }
      auto r = rpc->QueryBatch(out->observer, out->targets);
      if (!r.ok()) return false;
      out->epoch = r->epoch;
      out->scores = std::move(r->scores);
      return true;
    }
    case kTopKOp: {
      auto r = rpc->QueryTopK(out->observer, kTopK);
      if (!r.ok()) return false;
      out->epoch = r->epoch;
      out->targets = std::move(r->ids);
      out->scores = std::move(r->scores);
      return true;
    }
  }
  return false;
}

struct ReadConnResult {
  ReadConnResult(int64_t start_ns, int64_t end_ns, uint64_t seed)
      : latency_us(start_ns, end_ns, seed) {}
  uint64_t sent[3] = {0, 0, 0};
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  WindowedSamples latency_us;  // at completion
  std::string error;
};

// serve_read: one closed-loop connection until `deadline_ns`; every reply
// is checked against the replay snapshot (and its precomputed top-k).
void ReadLoop(uint16_t port, const ReputationSnapshot& replay,
              const std::vector<dgt::TopKQueryResult>& topk,
              int64_t deadline_ns, uint64_t seed, uint64_t conn,
              uint64_t parent_span, ReadConnResult* out) {
  auto client = RpcClient::Connect(port, kConnectRetryMs);
  if (!client.ok()) {
    out->error = client.status().ToString();
    return;
  }
  RpcClient rpc = std::move(client).value();
  const uint32_t n = replay.num_nodes();
  dgt::Rng rng(seed);
  ReadReply reply;
  for (uint64_t seq = 0; NowNs() < deadline_ns; ++seq) {
    const Op op = OpAt(seq);
    ++out->sent[op];
    const int64_t start = NowNs();
    bool ok;
    {
      Span span(kOpSpans[op], (conn << 40) | seq, parent_span);
      ok = IssueRead(&rpc, op, n, &rng, &reply);
    }
    const int64_t done = NowNs();
    if (!ok) {
      ++out->failed;
      continue;
    }
    out->latency_us.Add(done, static_cast<double>(done - start) * 1e-3);
    const auto& row = replay.scores[reply.observer];
    bool match = reply.epoch == replay.epoch;
    if (op == kTopKOp) {
      const dgt::TopKQueryResult& want = topk[reply.observer];
      match = match && reply.targets == want.ids &&
              SameBits(reply.scores, want.scores);
    } else {
      match = match && reply.scores.size() == reply.targets.size();
      for (size_t t = 0; match && t < reply.targets.size(); ++t) {
        match = SameScore(reply.scores[t], row[reply.targets[t]]);
      }
    }
    if (!match) ++out->mismatches;
  }
}

}  // namespace

void RunServeRead(const Config& config, Inputs* inputs, double budget_s,
                  Report* report) {
  Span stage("stage.serve_read");
  const ReputationSnapshot& replay = *inputs->read_replay;
  const uint32_t n = replay.num_nodes();
  {
    auto served = inputs->read_service->Snapshot();
    bool same = served != nullptr && served->epoch == replay.epoch;
    for (uint32_t i = 0; same && i < n; ++i) {
      same = SameBits(served->scores[i], replay.scores[i]);
    }
    if (!same) report->Fail("serve_read: set-up is not deterministic");
  }
  std::vector<dgt::TopKQueryResult> topk(n);
  for (uint32_t i = 0; i < n; ++i) {
    topk[i] = dgt::TopKQuery(replay, static_cast<NodeId>(i), kTopK).value();
  }

  // The latency is scaled by loopback echo round trips of the same shape
  // (echo.h), timed right before and right after the reads.
  const double echo_before_us =
      EchoP50Us(config.read_conns, config.server_workers, kEchoSeconds);

  dgt::rpc::RpcServerOptions server_options;
  server_options.worker_threads = config.server_workers;
  server_options.metrics = &inputs->read_registry;
  dgt::rpc::RpcServer server(inputs->read_service.get(), server_options);
  dgt::Status started = server.Start();
  if (!started.ok()) {
    report->Fail("serve_read server start: " + started.ToString());
    return;
  }
  const uint16_t port = server.port();

  // Measurement starts once the sample buffers are written and every
  // connection is up; replies before it are not counted.
  const int64_t start = NowNs() + 10'000'000;
  const int64_t deadline = start + static_cast<int64_t>(budget_s * 1e9);
  std::vector<ReadConnResult> conns;
  conns.reserve(config.read_conns);
  for (uint32_t c = 0; c < config.read_conns; ++c) {
    conns.emplace_back(start, deadline, DeriveSeed(config.seed, 310 + c));
  }
  {
    // dgt-lint: raw-thread-ok(one closed-loop client thread per connection)
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < config.read_conns; ++c) {
      threads.emplace_back(ReadLoop, port, std::cref(replay), std::cref(topk),
                           deadline, DeriveSeed(config.seed, 300 + c), c + 1,
                           stage.id(), &conns[c]);
    }
    for (auto& t : threads) t.join();
  }
  const double echo_after_us =
      EchoP50Us(config.read_conns, config.server_workers, kEchoSeconds);

  uint64_t sent[3] = {0, 0, 0};
  uint64_t failed = 0, mismatches = 0;
  std::vector<const WindowedSamples*> latency;
  for (const ReadConnResult& c : conns) {
    if (!c.error.empty()) report->Fail("serve_read connect: " + c.error);
    for (int op = 0; op < 3; ++op) sent[op] += c.sent[op];
    failed += c.failed;
    mismatches += c.mismatches;
    latency.push_back(&c.latency_us);
  }
  report->attempted += sent[0] + sent[1] + sent[2];
  report->failed += failed;
  if (mismatches != 0) {
    report->Fail("serve_read: " + std::to_string(mismatches) +
                 " replies differ from the in-process replay");
  }
  const double p50 = WindowPercentile(latency, 50.0);
  if (!(p50 > 0.0)) {
    report->Fail("serve_read: no read completed");
    return;
  }
  report->Layer("rpc.read_qps",
                WindowMedian(latency,
                             [](std::vector<double>, uint64_t count,
                                double width_ns) {
                               return static_cast<double>(count) /
                                      (width_ns * 1e-9);
                             }),
                "1/s");
  const double echo_us = 0.5 * (echo_before_us + echo_after_us);
  if (echo_before_us > 0.0 && echo_after_us > 0.0) {
    report->E2e("read_p50_us", p50 * kEchoReferenceUs / echo_us, "us");
  } else {
    report->Fail("serve_read: the echo calibration could not connect");
  }
  report->Layer("rpc.read_p50_wall_us", p50, "us");
  report->Layer("bench.echo_p50_us", echo_us, "us");
  report->Layer("rpc.read_p99_us", WindowPercentile(latency, 99.0), "us");

  // Server counters vs client sent counts (exact: the server counts at
  // decode time, before admission control), then the server's own
  // service-time and queue figures.
  dgt::Result<dgt::obs::MetricsSnapshot> metrics = FetchServerMetrics(port);
  if (!metrics.ok()) {
    report->Fail("serve_read stats: " + metrics.status().ToString());
  } else {
    const dgt::obs::MetricsSnapshot& m = metrics.value();
    const struct {
      const char* counter;
      uint64_t expected;
    } checks[] = {{"rpc_requests_point_query", sent[kPoint]},
                  {"rpc_requests_batch_query", sent[kBatch]},
                  {"rpc_requests_topk_query", sent[kTopKOp]},
                  {"rpc_requests_trust_update", 0},
                  {"rpc_requests_stats", 1}};
    for (const auto& c : checks) {
      if (CounterOr0(m, c.counter) != c.expected) {
        report->Fail(std::string("serve_read: server ") + c.counter + " = " +
                     std::to_string(CounterOr0(m, c.counter)) +
                     ", client sent " + std::to_string(c.expected));
      }
    }
    dgt::obs::HistogramSnapshot service =
        Histogram(m, "rpc_service_point_query_us");
    service.Merge(Histogram(m, "rpc_service_batch_query_us"));
    service.Merge(Histogram(m, "rpc_service_topk_query_us"));
    const double service_p50 = service.ValueAtPercentile(50.0);
    report->Layer("rpc.service_p50_us", service_p50, "us");
    report->Layer("rpc.service_p99_us", service.ValueAtPercentile(99.0),
                  "us");
    report->Layer("rpc.outside_service_us", p50 - service_p50, "us");
    report->Layer("rpc.batch_size_p50",
                  Histogram(m, "rpc_batch_size").ValueAtPercentile(50.0),
                  "count");
    auto peak = m.gauges.find("rpc_queue_peak_depth");
    report->Layer("rpc.queue_peak_depth",
                  peak == m.gauges.end() ? 0.0
                                         : static_cast<double>(peak->second),
                  "count");
  }

  // Every observer's full row over the wire, bitwise against the replay.
  auto client = RpcClient::Connect(port, kConnectRetryMs);
  if (!client.ok()) {
    report->Fail("serve_read verify connect: " + client.status().ToString());
  } else {
    std::vector<NodeId> all(n);
    for (uint32_t j = 0; j < n; ++j) all[j] = static_cast<NodeId>(j);
    uint64_t bad_rows = 0;
    for (uint32_t i = 0; i < n; ++i) {
      auto row = client.value().QueryBatch(static_cast<NodeId>(i), all);
      if (!row.ok() || row->epoch != replay.epoch ||
          !SameBits(row->scores, replay.scores[i])) {
        ++bad_rows;
      }
    }
    if (bad_rows != 0) {
      report->Fail("serve_read: " + std::to_string(bad_rows) +
                   " served rows differ from the in-process replay");
    }
  }
  server.Stop();
}

namespace {

struct EpochSeen {
  uint64_t epoch = 0;
  uint64_t folded = 0;  // Snapshot()->trust_updates_folded
  int64_t seen_ns = 0;
};

struct LiveReply {
  int64_t t_ns = 0;
  uint64_t epoch = 0;
};

struct LiveConnResult {
  LiveConnResult(int64_t start_ns, int64_t end_ns, uint64_t seed)
      : latency_us(start_ns, end_ns, seed) {}
  uint64_t attempted = 0;
  uint64_t failed = 0;
  WindowedSamples latency_us;      // reads only, at the due time
  std::vector<double> late_ms;     // send time - due time
  std::vector<LiveReply> replies;  // reads only
  std::vector<int64_t> acks_ns;    // writer only: OK replies in order
  bool epoch_regressed = false;
  bool nonfinite = false;
  std::string error;
};

// One open-loop connection: request i is due at start + (phase + i) /
// rate. Readers send the 8:1:1 mix until `stop` is set; the writer sends
// trust updates until `write_deadline_ns`.
void LiveLoop(uint16_t port, uint32_t n, bool writer, double rate,
              double phase, int64_t start_ns, int64_t write_deadline_ns,
              const std::atomic<bool>* stop,
              std::atomic<uint64_t>* max_epoch, uint64_t seed, uint64_t conn,
              uint64_t parent_span, LiveConnResult* out) {
  auto client = RpcClient::Connect(port, kConnectRetryMs);
  if (!client.ok()) {
    out->error = client.status().ToString();
    return;
  }
  RpcClient rpc = std::move(client).value();
  dgt::Rng rng(seed);
  ReadReply reply;
  uint64_t last_epoch = 0;
  for (uint64_t seq = 0;; ++seq) {
    const int64_t due =
        start_ns + static_cast<int64_t>((phase + static_cast<double>(seq)) /
                                        rate * 1e9);
    if (writer ? due >= write_deadline_ns
               : stop->load(std::memory_order_acquire)) {
      break;
    }
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    const int64_t sent = NowNs();
    out->late_ms.push_back(static_cast<double>(sent - due) * 1e-6);
    ++out->attempted;
    if (writer) {
      const auto observer = static_cast<NodeId>(rng.NextBelow(n));
      const auto target =
          static_cast<NodeId>((observer + 1 + rng.NextBelow(n - 1)) % n);
      dgt::Status s;
      {
        Span span("rpc.update", (conn << 40) | seq, parent_span);
        s = rpc.SubmitTrustUpdate(observer, target, rng.NextDouble());
      }
      if (s.ok()) {
        out->acks_ns.push_back(NowNs());
      } else {
        ++out->failed;
      }
      continue;
    }
    const Op op = OpAt(seq);
    bool ok;
    {
      Span span(kOpSpans[op], (conn << 40) | seq, parent_span);
      ok = IssueRead(&rpc, op, n, &rng, &reply);
    }
    const int64_t done = NowNs();
    if (!ok) {
      ++out->failed;
      continue;
    }
    out->latency_us.Add(due, static_cast<double>(done - due) * 1e-3);
    out->replies.push_back({done, reply.epoch});
    if (reply.epoch < last_epoch) out->epoch_regressed = true;
    last_epoch = reply.epoch;
    uint64_t seen = max_epoch->load(std::memory_order_relaxed);
    while (reply.epoch > seen &&
           !max_epoch->compare_exchange_weak(seen, reply.epoch)) {
    }
    for (double s : reply.scores) {
      if (!std::isfinite(s)) out->nonfinite = true;
    }
  }
}

// Waits (polling) until pred() holds; false after timeout_s.
template <typename Pred>
bool WaitFor(Pred pred, double timeout_s) {
  const int64_t start = NowNs();
  while (!pred()) {
    if (SecondsSince(start) > timeout_s) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

}  // namespace

void RunServeLive(const Config& config, Inputs* inputs, double budget_s,
                  Report* report) {
  Span stage("stage.serve_live");
  dgt::ReputationService* service = inputs->live_service.get();
  const uint32_t n = service->graph().num_nodes();
  dgt::rpc::RpcServerOptions server_options;
  server_options.worker_threads = config.server_workers;
  server_options.metrics = &inputs->live_registry;
  dgt::rpc::RpcServer server(service, server_options);
  dgt::Status started = service->Start();
  if (started.ok()) started = server.Start();
  if (!started.ok()) {
    report->Fail("serve_live start: " + started.ToString());
    return;
  }
  // Warm-up, not measured: the first epochs of a cold service.
  constexpr double kWaitS = 60.0;
  if (!WaitFor([&] { return service->epoch() >= 2; }, kWaitS)) {
    report->Fail("serve_live: no epoch published within 60 s");
    return;
  }

  // Poller: the folded-update count of every epoch, as it publishes.
  std::vector<EpochSeen> epochs;
  std::atomic<bool> stop_poller{false};
  // dgt-lint: raw-thread-ok(epoch poller of the open-loop benchmark)
  std::thread poller([&] {
    uint64_t last = 0;
    // One last poll after the stop: the readers have by then seen the
    // epoch that folded every acknowledged update, and it must be here.
    for (bool stop = false; !stop;) {
      stop = stop_poller.load(std::memory_order_acquire);
      auto snap = service->Snapshot();
      if (snap != nullptr && snap->epoch != last) {
        epochs.push_back({snap->epoch, snap->trust_updates_folded, NowNs()});
        last = snap->epoch;
      }
      // Rounds take milliseconds at the smallest size, so a 1 ms poll
      // sees every epoch without adding thousands of wake-ups a second.
      if (!stop) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const uint32_t conns = config.live_readers + 1;  // the last one writes
  std::atomic<bool> stop_readers{false};
  std::atomic<uint64_t> max_epoch_read{0};
  // Let the sample buffers be written and every thread connect.
  const int64_t start = NowNs() + 10'000'000;
  const int64_t write_deadline =
      start + static_cast<int64_t>(budget_s * 1e9);
  std::vector<LiveConnResult> results;
  results.reserve(conns);
  for (uint32_t c = 0; c < conns; ++c) {
    results.emplace_back(start, write_deadline,
                         DeriveSeed(config.seed, 410 + c));
  }
  WindowedSamples freshness_ms(start, write_deadline,
                               DeriveSeed(config.seed, 420));  // at the ack
  {
    // dgt-lint: raw-thread-ok(one open-loop client thread per connection)
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < conns; ++c) {
      const bool writer = c == config.live_readers;
      threads.emplace_back(
          LiveLoop, server.port(), n, writer,
          writer ? config.LiveWriteRate() : config.live_read_rate,
          writer ? 0.5 : static_cast<double>(c) / config.live_readers, start,
          write_deadline, &stop_readers, &max_epoch_read,
          DeriveSeed(config.seed, 400 + c),
          c + 1, stage.id(), &results[c]);
    }
    // After the writer stops, readers run on until a reply carries an
    // epoch two past the one current then, which has folded every
    // acknowledged update.
    threads.back().join();
    const uint64_t epoch_at_stop = service->epoch();
    if (!WaitFor([&] { return max_epoch_read.load() >= epoch_at_stop + 2; },
                 kWaitS)) {
      report->Fail("serve_live: epochs stopped after the writer finished");
    }
    stop_readers.store(true, std::memory_order_release);
    for (size_t c = 0; c + 1 < threads.size(); ++c) threads[c].join();
  }
  stop_poller.store(true, std::memory_order_release);
  poller.join();

  std::vector<const WindowedSamples*> latency;
  std::vector<double> late;
  std::vector<LiveReply> replies;
  for (const LiveConnResult& r : results) {
    if (!r.error.empty()) report->Fail("serve_live connect: " + r.error);
    if (r.epoch_regressed) report->Fail("serve_live: an epoch went back");
    if (r.nonfinite) report->Fail("serve_live: a served score is not finite");
    report->attempted += r.attempted;
    report->failed += r.failed;
    if (&r != &results.back()) latency.push_back(&r.latency_us);
    late.insert(late.end(), r.late_ms.begin(), r.late_ms.end());
    replies.insert(replies.end(), r.replies.begin(), r.replies.end());
  }
  const std::vector<int64_t>& acks = results.back().acks_ns;
  std::sort(replies.begin(), replies.end(),
            [](const LiveReply& a, const LiveReply& b) {
              return a.t_ns < b.t_ns;
            });

  // Freshness of update k (1-based): first reply at or after its ack whose
  // epoch is at least the first epoch with folded >= k.
  size_t visible = 0;
  size_t epoch_index = 0;
  for (size_t k = 1; k <= acks.size(); ++k) {
    while (epoch_index < epochs.size() && epochs[epoch_index].folded < k) {
      ++epoch_index;
    }
    if (epoch_index == epochs.size()) break;
    const uint64_t visible_epoch = epochs[epoch_index].epoch;
    auto it = std::lower_bound(
        replies.begin(), replies.end(), acks[k - 1],
        [](const LiveReply& r, int64_t t) { return r.t_ns < t; });
    while (it != replies.end() && it->epoch < visible_epoch) ++it;
    if (it == replies.end()) break;
    freshness_ms.Add(acks[k - 1],
                     static_cast<double>(it->t_ns - acks[k - 1]) * 1e-6);
    ++visible;
  }
  if (visible != acks.size()) {
    report->Fail("serve_live: " + std::to_string(acks.size() - visible) +
                 " acknowledged updates never became visible to a reader");
  }

  std::vector<double> intervals_ms;
  for (size_t e = 0; e < epochs.size(); ++e) {
    if (epochs[e].seen_ns < start || epochs[e].seen_ns > write_deadline) {
      continue;
    }
    if (e > 0) {
      intervals_ms.push_back(
          static_cast<double>(epochs[e].seen_ns - epochs[e - 1].seen_ns) *
          1e-6);
    }
  }
  const double read_p50 = WindowPercentile(latency, 50.0);
  const double freshness_p50 = WindowPercentile({&freshness_ms}, 50.0);
  if (!(read_p50 > 0.0) || !(freshness_p50 > 0.0) || intervals_ms.empty()) {
    report->Fail("serve_live: no reads, visible updates or epochs");
    return;
  }
  report->Layer("serve.live_read_p50_us", read_p50, "us");
  report->Layer("serve.live_read_p99_us", WindowPercentile(latency, 99.0),
                "us");
  report->Layer("serve.freshness_p50_ms", freshness_p50, "ms");
  report->Layer("serve.freshness_p99_ms",
                WindowPercentile({&freshness_ms}, 99.0), "ms");
  // From the median epoch interval rather than an epoch count, which a
  // few-second stage would quantise.
  const double interval_ms = Median(intervals_ms);
  report->Layer("serve.epochs_per_s", 1000.0 / interval_ms, "1/s");
  report->Layer("bench.generator_late_ms", Percentile(late, 99.0), "ms");
  report->Layer("serve.epoch_interval_ms", interval_ms, "ms");

  // Every acknowledged update must have been folded, by the server's own
  // account.
  dgt::Result<dgt::obs::MetricsSnapshot> metrics =
      FetchServerMetrics(server.port());
  if (!metrics.ok()) {
    report->Fail("serve_live stats: " + metrics.status().ToString());
  } else {
    const dgt::obs::MetricsSnapshot& m = metrics.value();
    const uint64_t folded = CounterOr0(m, "serve_updates_folded");
    if (folded != acks.size()) {
      report->Fail("serve_live: serve_updates_folded = " +
                   std::to_string(folded) + ", updates acknowledged = " +
                   std::to_string(acks.size()));
    }
    report->Layer("serve.updates_folded", static_cast<double>(folded),
                  "count");
    report->Layer(
        "serve.epochs_published",
        static_cast<double>(CounterOr0(m, "serve_epochs_published")),
        "count");
    report->Layer("serve.fold_p50_us",
                  Histogram(m, "serve_fold_us").ValueAtPercentile(50.0),
                  "us");
  }
  server.Stop();
  service->Stop();
}

}  // namespace e2ebench
