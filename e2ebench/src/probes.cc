// The traced run's layer probes: each layer's public entry point called
// in isolation, under a span, on the run's own inputs. The gossip and net
// engines are seeded exactly as AggregateGclrVector(Async) seeds them in
// the gclr stages, so their counts must match the stages' counts.
// RecordSpanLayers then turns the span summary of the whole run into the
// per-layer metrics.

#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "gossip/sparse_vector_engine.h"
#include "net/async_gossip.h"
#include "reputation/aggregation.h"
#include "rpc/wire.h"
#include "trace.h"
#include "trust/weights.h"

namespace e2ebench {
namespace {

constexpr uint32_t kParallelForCalls = 2000;
constexpr uint32_t kPointQueries = 20000;
constexpr uint32_t kBatchQueries = 2000;
constexpr uint32_t kTopKQueries = 2000;
constexpr uint32_t kWireRounds = 5000;
constexpr uint32_t kTracerSpans = 20000;
// The stages whose tracing cost the tracer probe estimates.
constexpr const char* kStages[] = {"gclr_sync", "gclr_async", "serve_read",
                                   "serve_live"};

double LayerValue(const Report& report, const char* name) {
  auto it = report.layers.find(name);
  return it == report.layers.end() ? 0.0 : it->second.value;
}

void ProbeEngines(const Config& config, const Inputs& inputs,
                  Report* report) {
  const Problem& sync = inputs.sync[0];
  {
    Span span("trust.weights");
    for (dgt::NodeId i = 0; i < sync.graph->num_nodes(); ++i) {
      if (!dgt::WeightTable::Build(*sync.trust, i, dgt::WeightParams{})
               .ok()) {
        report->Fail("WeightTable::Build failed");
        return;
      }
    }
  }
  std::vector<dgt::SparseVectorRow> init;
  {
    Span span("reputation.init");
    init = dgt::BuildGclrSparseInit(*sync.trust);
  }
  for (const uint32_t threads : {config.threads, 1u}) {
    dgt::GossipOptions options;
    options.xi = config.xi;
    options.seed = DeriveSeed(config.seed, 11);
    options.num_threads = threads;
    dgt::SparseVectorPushSum engine(sync.graph.get(), options);
    dgt::Result<dgt::SparseVectorGossipResult> r = [&] {
      Span span(threads == 1 ? "gossip.run_1t" : "gossip.run");
      return engine.Run(init, /*use_count=*/true);
    }();
    if (!r.ok() || r->steps != LayerValue(*report, "gossip.steps") ||
        r->gossip_messages != LayerValue(*report, "gossip.messages") ||
        r->peak_state_nonzeros != LayerValue(*report, "gossip.peak_nnz")) {
      report->Fail("gossip probe at T=" + std::to_string(threads) +
                   " does not reproduce the gclr_sync round's counts");
    }
  }

  const Problem& async = inputs.async[0];
  const std::vector<dgt::SparseVectorRow> async_init =
      dgt::BuildGclrSparseInit(*async.trust);
  for (const uint32_t threads : {config.threads, 1u}) {
    dgt::AsyncGossipOptions options;
    options.xi = config.xi;
    options.seed = DeriveSeed(config.seed, 21);
    options.link.seed = DeriveSeed(config.seed, 22);
    options.num_threads = threads;
    dgt::AsyncSparsePushSum engine(async.graph.get(), options);
    dgt::Result<dgt::AsyncSparseGossipResult> r = [&] {
      Span span(threads == 1 ? "net.run_1t" : "net.run");
      return engine.Run(async_init, /*use_count=*/true);
    }();
    // dgt-lint: float-eq-ok(exact integer counts carried as doubles)
    if (!r.ok() || r->stats.events != LayerValue(*report, "net.events")) {
      report->Fail("net probe at T=" + std::to_string(threads) +
                   " does not reproduce the gclr_async round's events");
    }
  }
}

void ProbeHandOffAndQueries(const Config& config, const Inputs& inputs,
                            Report* report) {
  uint64_t sink = 0;
  {
    dgt::ThreadPool pool(config.threads);
    std::vector<uint64_t> per_shard(64, 0);
    Span span("common.parallel_for");
    for (uint32_t call = 0; call < kParallelForCalls; ++call) {
      pool.ParallelFor(config.threads, [&](size_t shard, size_t b, size_t e) {
        per_shard[shard % per_shard.size()] += e - b;
      });
    }
    for (uint64_t v : per_shard) sink += v;
  }

  const dgt::ReputationService& service = *inputs.read_service;
  const uint32_t n = service.graph().num_nodes();
  dgt::Rng rng(DeriveSeed(config.seed, 500));
  auto id = [&] { return static_cast<dgt::NodeId>(rng.NextBelow(n)); };
  {
    Span span("serve.query_point");
    for (uint32_t q = 0; q < kPointQueries; ++q) {
      sink += service.QueryPoint(id(), id()).ok();
    }
  }
  std::vector<dgt::NodeId> targets(kBatchTargets);
  {
    Span span("serve.query_batch");
    for (uint32_t q = 0; q < kBatchQueries; ++q) {
      for (auto& t : targets) t = id();
      sink += service.QueryBatch(id(), targets).ok();
    }
  }
  {
    Span span("serve.query_topk");
    for (uint32_t q = 0; q < kTopKQueries; ++q) {
      sink += service.QueryTopK(id(), kTopK).ok();
    }
  }
  if (sink != kParallelForCalls * static_cast<uint64_t>(config.threads) +
                  kPointQueries + kBatchQueries + kTopKQueries) {
    report->Fail("parallel-for or in-process query probe lost work");
  }
}

// Encode and decode the serve_read request and reply shapes.
void ProbeWire(const Inputs& inputs, Report* report) {
  namespace rpc = dgt::rpc;
  const dgt::ReputationSnapshot& snap = *inputs.read_replay;
  rpc::BatchQueryRequest batch_request{3, {}};
  rpc::BatchQueryReply batch_reply{snap.epoch, {}};
  for (uint32_t t = 0; t < kBatchTargets; ++t) {
    batch_request.targets.push_back(t);
    batch_reply.scores.push_back(snap.scores[3][t]);
  }
  rpc::TopKQueryReply topk_reply{snap.epoch, {}, {}};
  for (uint32_t t = 0; t < kTopK; ++t) {
    topk_reply.ids.push_back(t);
    topk_reply.scores.push_back(snap.scores[3][t]);
  }
  std::vector<std::vector<uint8_t>> frames;
  {
    Span span("rpc.encode");
    for (uint32_t round = 0; round < kWireRounds; ++round) {
      frames.clear();
      frames.push_back(rpc::Encode(round, rpc::PointQueryRequest{3, 5}));
      frames.push_back(rpc::Encode(round, batch_request));
      frames.push_back(rpc::Encode(round, rpc::TopKQueryRequest{3, kTopK}));
      frames.push_back(
          rpc::Encode(round, rpc::PointQueryReply{snap.epoch, 0.5}));
      frames.push_back(rpc::Encode(round, batch_reply));
      frames.push_back(rpc::Encode(round, topk_reply));
    }
  }
  uint64_t decoded = 0;
  {
    Span span("rpc.decode");
    rpc::DecodedMessage message;
    std::string error;
    for (uint32_t round = 0; round < kWireRounds; ++round) {
      for (const auto& frame : frames) {
        decoded += rpc::DecodeFrame(frame.data(), frame.size(), &message,
                                    &error) == rpc::WireError::kOk;
      }
    }
  }
  if (decoded != kWireRounds * frames.size()) {
    report->Fail("wire probe: a frame failed to decode");
  }
}

// The tracer's own cost: kTracerSpans empty spans, opened and closed back
// to back under one span whose duration they fill.
void ProbeTracer() {
  Span span("trace.span_probe");
  for (uint32_t i = 0; i < kTracerSpans; ++i) {
    Span empty("trace.empty");
  }
}

}  // namespace

void RunLayerProbes(const Config& config, Inputs* inputs, Report* report) {
  Span root("probes");
  ProbeEngines(config, *inputs, report);
  ProbeHandOffAndQueries(config, *inputs, report);
  ProbeWire(*inputs, report);
  ProbeTracer();
}

void RecordSpanLayers(const std::map<std::string, SpanSummary>& spans,
                      const std::map<std::string, SpanSummary>& trees,
                      const Config& config, Report* report) {
  auto mean_ns = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() || it->second.count == 0
               ? 0.0
               : it->second.total_ns / static_cast<double>(it->second.count);
  };
  auto self_ns = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.self_ns;
  };
  const double reps = config.setup_reps;
  report->Layer("graph.build_ms", self_ns("graph.build") / reps * 1e-6, "ms");
  report->Layer("trust.build_ms", self_ns("trust.build") / reps * 1e-6, "ms");
  const double weights = mean_ns("trust.weights");
  const double init = mean_ns("reputation.init");
  const double run = mean_ns("gossip.run");
  const double run_1t = mean_ns("gossip.run_1t");
  report->Layer("trust.weights_ms", weights * 1e-6, "ms");
  report->Layer("reputation.init_ms", init * 1e-6, "ms");
  report->Layer("reputation.post_ms",
                (mean_ns("reputation.aggregate") - weights - init - run) *
                    1e-6,
                "ms");
  report->Layer("gossip.run_ms", run * 1e-6, "ms");
  report->Layer("gossip.run_1t_ms", run_1t * 1e-6, "ms");
  const double nnz_steps = LayerValue(*report, "gossip.steps") *
                           LayerValue(*report, "gossip.peak_nnz");
  report->Layer("gossip.ns_per_nnz_step",
                nnz_steps > 0 ? run_1t / nnz_steps : 0.0, "ns");
  report->Layer("gossip.speedup", run > 0 ? run_1t / run : 0.0, "x");
  const double net_1t = mean_ns("net.run_1t");
  const double events = LayerValue(*report, "net.events");
  report->Layer("net.run_ms", mean_ns("net.run") * 1e-6, "ms");
  report->Layer("net.run_1t_ms", net_1t * 1e-6, "ms");
  report->Layer("net.ns_per_event", events > 0 ? net_1t / events : 0.0,
                "ns");
  report->Layer("common.parallel_for_us",
                mean_ns("common.parallel_for") / kParallelForCalls * 1e-3,
                "us");
  report->Layer("serve.query_point_us",
                mean_ns("serve.query_point") / kPointQueries * 1e-3, "us");
  report->Layer("serve.query_batch_us",
                mean_ns("serve.query_batch") / kBatchQueries * 1e-3, "us");
  report->Layer("serve.query_topk_us",
                mean_ns("serve.query_topk") / kTopKQueries * 1e-3, "us");
  report->Layer("rpc.encode_ns", mean_ns("rpc.encode") / (kWireRounds * 6.0),
                "ns");
  report->Layer("rpc.decode_ns", mean_ns("rpc.decode") / (kWireRounds * 6.0),
                "ns");

  // Tracing cost per stage, estimated in process: the spans the stage
  // recorded times the cost of one span, as a share of the thread time
  // spent under the stage's spans. Unlike the traced - untraced figures
  // of run.py, it does not move with the host between the two runs.
  const double span_ns = mean_ns("trace.span_probe") / kTracerSpans;
  report->Layer("trace.span_ns", span_ns, "ns");
  for (const char* stage : kStages) {
    auto it = trees.find(std::string("stage.") + stage);
    const double share =
        it == trees.end() || it->second.self_ns <= 0.0
            ? 0.0
            : static_cast<double>(it->second.count) * span_ns /
                  it->second.self_ns;
    report->Layer(std::string("trace.span_cost_") + stage + "_pct",
                  100.0 * share, "%");
  }
}

}  // namespace e2ebench
