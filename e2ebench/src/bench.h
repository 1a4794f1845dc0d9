// Shared types of the end-to-end benchmark driver: the run configuration
// (one workload's parameters, passed as flags by run.py), the seeded
// inputs every stage works on, and the report the stages fill in.
//
// A run executes four stages in a fixed order — gclr_sync, gclr_async,
// serve_read, serve_live — after a set-up phase that builds every input.
// Each stage times its calls into the library from outside (no hooks in
// src/), checks the outputs, and records end-to-end metrics; a traced
// run also records per-layer metrics (see trace.h and probes.cc).

#ifndef DGT_E2EBENCH_BENCH_H_
#define DGT_E2EBENCH_BENCH_H_

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "trace.h"
#include "trust/trust_matrix.h"

namespace e2ebench {

// The fields up to the shares are set per run from flags, and run.py takes
// every one of them from workloads.json; main.cc refuses a run that lacks
// one, so they have no defaults here. The rest are the same for every
// workload.
struct Config {
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;  // span dump (JSON lines); empty = no file

  // Problem sizes per stage.
  uint32_t sync_n = 0;
  uint32_t async_n = 0;
  uint32_t read_n = 0;
  uint32_t live_n = 0;
  // gclr_* problem instances per run. The T = 1 legs cycle through them;
  // the figure is the mean over the instances of each one's median leg,
  // so that one seed's graph does not set it.
  uint32_t instances = 0;

  // serve_live: the open-loop read rate per reader connection (requests
  // per second), and reads per trust update across all readers. The one
  // writer sends at live_readers * live_read_rate / live_reads_per_update.
  double live_read_rate = 0.0;
  double live_reads_per_update = 0.0;

  // Share of `seconds` each stage measures for; they must add up to 1.
  double share_sync = 0.0;
  double share_async = 0.0;
  double share_read = 0.0;
  double share_live = 0.0;

  uint32_t pa_m = 2;
  uint32_t opinions = 20;
  double xi = 1e-3;
  uint32_t threads = 4;  // the T = 4 leg; the other leg is T = 1

  // Set-up: repetitions (setup_s is their median) and the serve_read
  // service's paced set-up rounds.
  uint32_t setup_reps = 3;
  uint32_t setup_rounds = 2;
  uint32_t setup_updates = 40;  // per set-up round boundary

  // serve_read: closed-loop connections and RPC worker threads.
  uint32_t read_conns = 4;
  uint32_t server_workers = 2;

  // serve_live: reader connections (plus one writer).
  uint32_t live_readers = 3;

  double LiveWriteRate() const {
    return live_readers * live_read_rate / live_reads_per_update;
  }

  // gclr_* accuracy check: observers sampled for the exact reference and
  // the RMS bound a converged run must meet.
  uint32_t rms_observers = 32;
  double rms_tolerance = 1e-3;  // the convergence xi
};

// The batch and top-k read shapes (serve_read, serve_live, wire probe).
constexpr uint32_t kBatchTargets = 16;
constexpr uint32_t kTopK = 8;

// One variant-4 problem: a PA overlay and a sparse trust matrix.
struct Problem {
  std::unique_ptr<dgt::Graph> graph;
  std::unique_ptr<dgt::TrustMatrix> trust;
};

// Everything the stages run on, built by BuildInputs.
struct Inputs {
  // Declared first so they outlive the services that instrument into
  // them (a service unregisters its callback gauges when it stops).
  dgt::obs::MetricsRegistry read_registry;
  dgt::obs::MetricsRegistry live_registry;
  // config.instances problems each; probes and the per-layer counts use
  // instance 0.
  std::vector<Problem> sync;
  std::vector<Problem> async;
  // serve_read: a service frozen after its paced set-up rounds, and an
  // independent replay of the same schedule to check served rows against.
  Problem read;
  std::unique_ptr<dgt::ReputationService> read_service;
  std::shared_ptr<const dgt::ReputationSnapshot> read_replay;
  // serve_live: constructed, started by its stage (a free-running service
  // would otherwise compete with the gclr stages for the cores).
  Problem live;
  std::unique_ptr<dgt::ReputationService> live_service;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layers;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void E2e(const std::string& name, double value, const std::string& unit) {
    e2e[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layers[name] = {value, unit};
  }
  // Records a failed output check; the run then reports correct=false.
  void Fail(const std::string& message);
};

// --- helpers shared by the stages ---

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             // dgt-lint: raw-time-ok(benchmark timing; results never use it)
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// Pins the calling thread to the CPU it is running on, for the lifetime
// of the object; threads it starts meanwhile inherit the pin. A timed
// call and the calibration passes around it (calibrate.h) then run on
// the same CPU, whose speed on a shared host can differ from the other
// CPUs' by 1.5x. Restores the previous CPU set when destroyed.
class PinToCurrentCpu {
 public:
  PinToCurrentCpu();
  ~PinToCurrentCpu();
  PinToCurrentCpu(const PinToCurrentCpu&) = delete;
  PinToCurrentCpu& operator=(const PinToCurrentCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// Bitwise equality: served and replayed scores must match to the bit.
inline bool SameBits(const std::vector<double>& a,
                     const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Nearest-rank percentile of `values` (p in [0, 100]); 0 when empty.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

// A seed for one named input, derived from the run seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t tag);

// --- stages (each appends to `report`) ---

// Builds every input config.setup_reps times (timing each pass) and keeps
// the first; records setup_s. False when a set-up step failed.
bool BuildInputs(const Config& config, Inputs* inputs, Report* report);
// Builds one PA graph + sparse trust problem (spans graph.build,
// trust.build).
Problem MakeProblem(uint32_t n, uint32_t pa_m, uint32_t opinions,
                    uint64_t seed);

void RunGclrSync(const Config& config, const Inputs& inputs, double budget_s,
                 Report* report);
void RunGclrAsync(const Config& config, const Inputs& inputs,
                  double budget_s, Report* report);
void RunServeRead(const Config& config, Inputs* inputs, double budget_s,
                  Report* report);
void RunServeLive(const Config& config, Inputs* inputs, double budget_s,
                  Report* report);

// Traced runs only: times each layer in isolation (gossip and net engines
// seeded as in production, weight tables, GCLR init, thread-pool
// hand-off, in-process queries, wire encode/decode) and records the
// per-layer metrics derived from them.
void RunLayerProbes(const Config& config, Inputs* inputs, Report* report);
// Traced runs only: the span-derived per-layer metrics (layer times, the
// ratios computed from them and the stages' counts, and the estimated
// tracing cost per stage). `spans` is SummarizeSpans, `trees`
// SummarizeTrees of the run's spans.
void RecordSpanLayers(const std::map<std::string, SpanSummary>& spans,
                      const std::map<std::string, SpanSummary>& trees,
                      const Config& config, Report* report);

}  // namespace e2ebench

#endif  // DGT_E2EBENCH_BENCH_H_
