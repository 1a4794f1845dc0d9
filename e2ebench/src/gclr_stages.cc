// Stages gclr_sync and gclr_async: one variant-4 aggregation (GCLR of
// every node at every observer) timed at T = config.threads and T = 1,
// over the synchronous sparse engine and over the event-driven engine.
// Checks: every run converges, both legs and every repetition agree
// bit-for-bit (estimates and engine counts — the thread-count-invariance
// contract), and the RMS gap to the exact centralized GCLR stays within
// config.rms_tolerance.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"
#include "calibrate.h"
#include "common/rng.h"
#include "reputation/aggregation.h"
#include "reputation/reference.h"
#include "trace.h"
#include "trust/weights.h"

namespace e2ebench {
namespace {

using Estimates = std::vector<std::vector<double>>;

bool SameEstimates(const Estimates& a, const Estimates& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

// Runs leg(threads, repetition) once at config.threads (the T = 4 figure
// is a per-layer metric, and the leg feeds the thread-count invariance
// check), then at one thread, repetition r on instance r % instances, for
// at least one leg per instance and then for as long as another leg fits
// in the budget. leg returns the wall seconds of its library call, or a
// negative value on failure. *single gets one list of T = 1 legs per
// instance, scaled by the calibration passes around each (calibrate.h),
// and *single_wall the same legs unscaled.
template <typename Leg>
void RunLegs(const Config& config, double budget_s, size_t instances,
             KernelKind kind, uint32_t n, Leg leg, std::vector<double>* multi,
             std::vector<std::vector<double>>* single,
             std::vector<std::vector<double>>* single_wall) {
  const int64_t start = NowNs();
  single->assign(instances, {});
  single_wall->assign(instances, {});
  double s = leg(config.threads, 0);
  if (s >= 0.0) multi->push_back(s);
  ScaledTimer timer(kind, n);
  PinToCurrentCpu pin;
  for (uint32_t rep = 0;; ++rep) {
    const int64_t leg_start = NowNs();
    timer.Begin();
    s = leg(1, rep);
    const double scaled = timer.Scaled(s);
    if (s >= 0.0) {
      (*single)[rep % instances].push_back(scaled);
      (*single_wall)[rep % instances].push_back(s);
    }
    if (rep + 1 >= instances &&
        SecondsSince(start) + SecondsSince(leg_start) > budget_s) {
      break;
    }
  }
}

// The T = 1 figure: the mean over the instances of each one's median leg.
// Round time depends on the graph (its convergence step count), so a mean
// over several seeded graphs varies less from seed to seed than one graph.
double MeanOfMedians(const std::vector<std::vector<double>>& legs) {
  double sum = 0.0;
  size_t count = 0;
  for (const std::vector<double>& instance : legs) {
    if (instance.empty()) continue;
    sum += Median(instance);
    ++count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

// RMS of (estimate - exact GCLR) over the full rows of a seeded sample of
// observers. The exact reference (reputation/reference.h) costs O(N^2)
// per observer, so it is evaluated for config.rms_observers of them.
double RmsAgainstExact(const Config& config, const Problem& problem,
                       const Estimates& estimates, uint64_t tag) {
  Span span("reputation.reference");
  const uint32_t n = problem.graph->num_nodes();
  dgt::Rng rng(DeriveSeed(config.seed, tag));
  double sum_sq = 0.0;
  uint64_t cells = 0;
  for (uint32_t k = 0; k < std::min(config.rms_observers, n); ++k) {
    const auto observer = static_cast<dgt::NodeId>(rng.NextBelow(n));
    dgt::Result<dgt::WeightTable> table =
        dgt::WeightTable::Build(*problem.trust, observer, dgt::WeightParams{});
    if (!table.ok()) return INFINITY;
    const std::vector<double> exact =
        dgt::ExactGclrVector(*problem.trust, *problem.graph, table.value(),
                             dgt::DenominatorMode::kOpinators);
    for (uint32_t j = 0; j < n; ++j) {
      const double d = estimates[observer][j] - exact[j];
      sum_sq += d * d;
      ++cells;
    }
  }
  return std::sqrt(sum_sq / static_cast<double>(cells));
}

void CheckRms(const char* stage, double rms, double tolerance,
              Report* report) {
  if (!(rms <= tolerance)) {
    report->Fail(std::string(stage) + " RMS error " + std::to_string(rms) +
                 " exceeds tolerance " + std::to_string(tolerance));
  }
}

}  // namespace

void RunGclrSync(const Config& config, const Inputs& inputs, double budget_s,
                 Report* report) {
  Span stage("stage.gclr_sync");
  const size_t instances = inputs.sync.size();
  std::vector<Estimates> first(instances);
  std::vector<dgt::GossipRunStats> first_stats(instances);
  // The T = 4 leg runs instance 0; T = 1 legs cycle through the instances.
  auto leg = [&](uint32_t threads, uint32_t rep) -> double {
    const size_t k = threads == 1 ? rep % instances : 0;
    const Problem& problem = inputs.sync[k];
    dgt::AggregationOptions options;
    options.gossip.xi = config.xi;
    options.gossip.seed = DeriveSeed(config.seed, 11 + 1000 * k);
    options.gossip.num_threads = threads;
    ++report->attempted;
    const int64_t start = NowNs();
    dgt::Result<dgt::VectorAggregationResult> r = [&] {
      Span span(threads == 1 ? "reputation.aggregate_1t"
                             : "reputation.aggregate",
                rep + 1);
      return dgt::AggregateGclrVector(*problem.graph, *problem.trust,
                                      options);
    }();
    const double seconds = SecondsSince(start);
    if (!r.ok()) {
      ++report->failed;
      report->Fail("AggregateGclrVector: " + r.status().ToString());
      return -1.0;
    }
    const dgt::GossipRunStats& st = r->stats;
    if (!st.converged) report->Fail("gclr_sync round did not converge");
    const dgt::GossipRunStats& ref = first_stats[k];
    if (first[k].empty()) {
      first[k] = std::move(r->estimates);
      first_stats[k] = st;
    } else if (!SameEstimates(first[k], r->estimates) ||
               st.steps != ref.steps ||
               st.gossip_messages != ref.gossip_messages ||
               st.control_messages != ref.control_messages ||
               st.peak_state_nonzeros != ref.peak_state_nonzeros) {
      report->Fail("gclr_sync: instance " + std::to_string(k) + " at T=" +
                   std::to_string(threads) + " run " + std::to_string(rep) +
                   " differs from its first run (thread-count invariance)");
    }
    return seconds;
  };
  std::vector<double> multi;
  std::vector<std::vector<double>> single, single_wall;
  RunLegs(config, budget_s, instances, KernelKind::kRoundState, config.sync_n,
          leg, &multi, &single, &single_wall);
  if (multi.empty() || MeanOfMedians(single) <= 0.0) return;

  report->Layer("reputation.round_s", Median(multi), "s");
  report->Layer("reputation.round_1t_wall_s", MeanOfMedians(single_wall),
                "s");
  report->E2e("round_1t_s", MeanOfMedians(single), "s");
  const double rms = RmsAgainstExact(config, inputs.sync[0], first[0], 12);
  report->Layer("reputation.rms_error", rms, "score");
  CheckRms("gclr_sync", rms, config.rms_tolerance, report);
  report->Layer("gossip.steps", first_stats[0].steps, "count");
  report->Layer("gossip.messages",
                static_cast<double>(first_stats[0].gossip_messages), "count");
  report->Layer("gossip.peak_nnz",
                static_cast<double>(first_stats[0].peak_state_nonzeros),
                "count");
}

void RunGclrAsync(const Config& config, const Inputs& inputs,
                  double budget_s, Report* report) {
  Span stage("stage.gclr_async");
  const size_t instances = inputs.async.size();
  std::vector<Estimates> first(instances);
  std::vector<dgt::AsyncEngineStats> first_stats(instances);
  auto leg = [&](uint32_t threads, uint32_t rep) -> double {
    const size_t k = threads == 1 ? rep % instances : 0;
    const Problem& problem = inputs.async[k];
    dgt::AsyncAggregationOptions options;
    options.gossip.xi = config.xi;
    options.gossip.seed = DeriveSeed(config.seed, 21 + 1000 * k);
    options.gossip.link.seed = DeriveSeed(config.seed, 22 + 1000 * k);
    options.gossip.num_threads = threads;
    ++report->attempted;
    const int64_t start = NowNs();
    dgt::Result<dgt::AsyncVectorAggregationResult> r = [&] {
      Span span(threads == 1 ? "net.aggregate_1t" : "net.aggregate",
                rep + 1);
      return dgt::AggregateGclrVectorAsync(*problem.graph, *problem.trust,
                                           options);
    }();
    const double seconds = SecondsSince(start);
    if (!r.ok()) {
      ++report->failed;
      report->Fail("AggregateGclrVectorAsync: " + r.status().ToString());
      return -1.0;
    }
    const dgt::AsyncEngineStats& st = r->stats;
    if (!st.converged) report->Fail("gclr_async round did not converge");
    const dgt::AsyncEngineStats& ref = first_stats[k];
    if (first[k].empty()) {
      first[k] = std::move(r->estimates);
      first_stats[k] = st;
    } else if (!SameEstimates(first[k], r->estimates) ||
               st.events != ref.events ||
               st.gossip_messages != ref.gossip_messages ||
               st.control_messages != ref.control_messages ||
               st.max_node_firings != ref.max_node_firings ||
               std::memcmp(&st.sim_time, &ref.sim_time, sizeof(double)) != 0) {
      report->Fail("gclr_async: instance " + std::to_string(k) + " at T=" +
                   std::to_string(threads) + " run " +
                   std::to_string(rep) +
                   " differs from the first run (thread-count invariance)");
    }
    return seconds;
  };
  std::vector<double> multi;
  std::vector<std::vector<double>> single, single_wall;
  RunLegs(config, budget_s, instances, KernelKind::kFreshRows,
          config.async_n, leg, &multi, &single, &single_wall);
  if (multi.empty() || MeanOfMedians(single) <= 0.0) return;

  report->Layer("net.round_s", Median(multi), "s");
  report->Layer("net.round_1t_wall_s", MeanOfMedians(single_wall), "s");
  report->E2e("async_round_1t_s", MeanOfMedians(single), "s");
  const double rms = RmsAgainstExact(config, inputs.async[0], first[0], 23);
  report->Layer("reputation.async_rms_error", rms, "score");
  CheckRms("gclr_async", rms, config.rms_tolerance, report);
  const dgt::AsyncEngineStats& st = first_stats[0];
  report->Layer("net.events", static_cast<double>(st.events), "count");
  report->Layer("net.messages",
                static_cast<double>(st.gossip_messages + st.control_messages),
                "count");
  report->Layer("net.sim_time", st.sim_time, "sim_s");
}

}  // namespace e2ebench
