// Seeded input generation and the timed set-up phase.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "bench.h"
#include "calibrate.h"
#include "common/rng.h"
#include "graph/pa_generator.h"
#include "serve/workload.h"
#include "trace.h"

namespace e2ebench {

using dgt::ReputationService;

void Report::Fail(const std::string& message) {
  std::fprintf(stderr, "check failed: %s\n", message.c_str());
  errors.push_back(message);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

PinToCurrentCpu::PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
}

PinToCurrentCpu::~PinToCurrentCpu() {
  if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

uint64_t DeriveSeed(uint64_t seed, uint64_t tag) {
  return dgt::Mix64(seed ^ dgt::Mix64(tag + 0x5eed));
}

Problem MakeProblem(uint32_t n, uint32_t pa_m, uint32_t opinions,
                    uint64_t seed) {
  Problem p;
  {
    Span span("graph.build");
    dgt::PaOptions options;
    options.num_nodes = n;
    options.edges_per_node = pa_m;
    options.seed = DeriveSeed(seed, 1);
    dgt::Result<dgt::Graph> graph =
        dgt::GeneratePreferentialAttachment(options);
    if (!graph.ok()) {
      std::fprintf(stderr, "graph generation failed: %s\n",
                   graph.status().ToString().c_str());
      std::exit(2);
    }
    p.graph = std::make_unique<dgt::Graph>(std::move(graph).value());
  }
  {
    // Each node rates `opinions` distinct random peers with a uniform
    // trust value.
    Span span("trust.build");
    p.trust = std::make_unique<dgt::TrustMatrix>(n);
    dgt::Rng rng(DeriveSeed(seed, 2));
    const uint32_t want = std::min(opinions, n - 1);
    for (dgt::NodeId i = 0; i < n; ++i) {
      for (uint32_t placed = 0; placed < want;) {
        const auto j = static_cast<dgt::NodeId>(rng.NextBelow(n));
        if (j == i || p.trust->HasOpinion(i, j)) continue;
        (void)p.trust->Set(i, j, rng.NextDouble());
        ++placed;
      }
    }
  }
  return p;
}

namespace {

dgt::ReputationServiceOptions ServiceOptions(const Config& config,
                                             uint32_t gossip_threads,
                                             uint64_t seed,
                                             dgt::obs::MetricsRegistry* reg) {
  // The read path keeps one shard per core whatever the gossip worker
  // count, as a service at T = config.threads would have.
  dgt::ReputationServiceOptions options;
  options.system.aggregation.gossip.xi = config.xi;
  options.system.aggregation.gossip.num_threads = gossip_threads;
  options.read_shards = config.threads;
  options.system.base_seed = DeriveSeed(seed, 3);
  options.metrics = reg;
  return options;
}

// The serve_read service: a paced schedule of config.setup_rounds rounds
// with a distinct-key update batch folded at every boundary but the last
// (the tools/smoke_workload.h recipe), after which the service is frozen
// at its final epoch. Its rounds run on one gossip worker, as serve_live's
// do (see BuildInputs): they are part of setup_s, and at T = 4 the
// per-step hand-off made set-up time swing between runs. Null on any
// error.
std::unique_ptr<ReputationService> RunPacedSetup(
    const Config& config, const Problem& problem, uint64_t seed,
    dgt::obs::MetricsRegistry* reg, Report* report) {
  Span span("serve.setup_rounds");
  dgt::ReputationServiceOptions options =
      ServiceOptions(config, 1, seed, reg);
  options.num_rounds = config.setup_rounds;
  options.paced = true;
  auto service = std::make_unique<ReputationService>(
      problem.graph.get(), *problem.trust, options);
  const uint32_t writer = service->RegisterReader();
  dgt::Status started = service->Start();
  if (!started.ok()) {
    report->Fail("serve_read service start: " + started.ToString());
    return nullptr;
  }
  const uint32_t n = problem.graph->num_nodes();
  uint64_t last = 0;
  for (;;) {
    const uint64_t epoch = service->AwaitEpochAfter(last);
    if (epoch == 0) break;
    if (epoch < config.setup_rounds) {
      for (const dgt::TrustUpdate& u : dgt::MakeDistinctTrustUpdates(
               n, DeriveSeed(seed, 100 + epoch), config.setup_updates)) {
        dgt::Status s = service->SubmitTrustUpdate(u.observer, u.target,
                                                   u.value);
        if (!s.ok()) report->Fail("set-up update: " + s.ToString());
      }
    }
    service->AckEpoch(writer, epoch);
    last = epoch;
  }
  service->AwaitCompletion();
  if (!service->driver_status().ok()) {
    report->Fail("serve_read set-up round: " +
                 service->driver_status().ToString());
    return nullptr;
  }
  if (service->epoch() != config.setup_rounds) {
    report->Fail("serve_read set-up stopped at epoch " +
                 std::to_string(service->epoch()));
    return nullptr;
  }
  return service;
}

}  // namespace

bool BuildInputs(const Config& config, Inputs* inputs, Report* report) {
  // setup_s is scaled by the host-speed calibration (calibrate.h). The
  // paced rounds' thread inherits the pin, so the calibration measures
  // the CPU the whole set-up runs on.
  ScaledTimer timer(KernelKind::kRoundState, config.read_n);
  PinToCurrentCpu pin;
  std::vector<double> times, wall_times;
  for (uint32_t rep = 0; rep < config.setup_reps; ++rep) {
    // Later passes exist to time set-up and to replay serve_read's
    // schedule; their services instrument into a throwaway registry.
    dgt::obs::MetricsRegistry scratch;
    Span span("setup", rep + 1);
    timer.Begin();
    const int64_t start = NowNs();
    const uint64_t s = config.seed;
    std::vector<Problem> sync, async;
    for (uint32_t k = 0; k < config.instances; ++k) {
      sync.push_back(MakeProblem(config.sync_n, config.pa_m, config.opinions,
                                 DeriveSeed(s, 1 + 1000 * k)));
      async.push_back(MakeProblem(config.async_n, config.pa_m,
                                  config.opinions,
                                  DeriveSeed(s, 2 + 1000 * k)));
    }
    Problem read = MakeProblem(config.read_n, config.pa_m, config.opinions,
                               DeriveSeed(s, 3));
    Problem live = MakeProblem(config.live_n, config.pa_m, config.opinions,
                               DeriveSeed(s, 4));
    std::unique_ptr<ReputationService> read_service =
        RunPacedSetup(config, read, DeriveSeed(s, 3),
                      rep == 0 ? &inputs->read_registry : &scratch, report);
    if (read_service == nullptr) return false;
    // serve_live's service runs its rounds on one gossip worker. At
    // T = 4 every gossip step hands off through the thread pool, and on a
    // shared host those wake-ups made freshness and epochs_per_s swing by
    // 2x between runs. Scores do not depend on the worker count, and the
    // single round thread still competes with the server for the cores.
    std::unique_ptr<ReputationService> live_service;
    {
      Span construct("serve.construct");
      live_service = std::make_unique<ReputationService>(
          live.graph.get(), *live.trust,
          ServiceOptions(config, 1, DeriveSeed(s, 4),
                         rep == 0 ? &inputs->live_registry : &scratch));
    }
    wall_times.push_back(SecondsSince(start));
    times.push_back(timer.Scaled(wall_times.back()));

    if (rep == 0) {
      inputs->sync = std::move(sync);
      inputs->async = std::move(async);
      inputs->read = std::move(read);
      inputs->live = std::move(live);
      inputs->read_service = std::move(read_service);
      inputs->live_service = std::move(live_service);
    } else if (rep == 1) {
      inputs->read_replay = read_service->Snapshot();
    }
  }
  report->E2e("setup_s", Median(times), "s");
  report->Layer("bench.setup_wall_s", Median(wall_times), "s");
  report->Layer("bench.calibration_ms", 1e3 * Median(timer.passes()), "ms");
  return true;
}

}  // namespace e2ebench
