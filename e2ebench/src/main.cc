// dgt_e2ebench: one run of the end-to-end benchmark. run.py maps a
// workload name to the flags below; everything else about the inputs is
// derived from --seed. The last line of stdout is one JSON object:
//
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {end-to-end metrics}, "layers": {per-layer metrics},
//    "env": {...}}
//
// "layers" holds the span-derived and probe metrics only with --trace=1,
// which records spans and runs the layer probes. The exit code is 0 only
// when every output check passed.
//
// Flags (all --name=value, all required but trace and trace_out): seed,
// seconds, trace, trace_out, the stage sizes sync_n, async_n, read_n,
// live_n, instances, the serve_live load live_read_rate and
// live_reads_per_update, and the stage shares share_sync, share_async,
// share_read, share_live, which must add up to 1 (see Config in bench.h).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "bench.h"
#include "calibrate.h"
#include "common/bench_output.h"
#include "trace.h"

namespace {

using e2ebench::Config;
using e2ebench::Metric;
using e2ebench::Report;

bool ParseFlags(int argc, char** argv, Config* c) {
  auto u32 = [](uint32_t* f) {
    return [f](const char* v) { *f = static_cast<uint32_t>(std::atoi(v)); };
  };
  auto f64 = [](double* f) {
    return [f](const char* v) { *f = std::atof(v); };
  };
  const std::map<std::string, std::function<void(const char*)>> setters = {
      {"seed", [c](const char* v) { c->seed = std::strtoull(v, nullptr, 10); }},
      {"seconds", f64(&c->seconds)},
      {"trace", [c](const char* v) { c->trace = std::atoi(v) != 0; }},
      {"trace_out", [c](const char* v) { c->trace_out = v; }},
      {"sync_n", u32(&c->sync_n)},
      {"async_n", u32(&c->async_n)},
      {"read_n", u32(&c->read_n)},
      {"live_n", u32(&c->live_n)},
      {"instances", u32(&c->instances)},
      {"live_read_rate", f64(&c->live_read_rate)},
      {"live_reads_per_update", f64(&c->live_reads_per_update)},
      {"share_sync", f64(&c->share_sync)},
      {"share_async", f64(&c->share_async)},
      {"share_read", f64(&c->share_read)},
      {"share_live", f64(&c->share_live)},
  };
  // Every other flag is required: workloads.json is the only source of
  // the run's sizes, shares and rates.
  const std::set<std::string> optional = {"trace", "trace_out"};
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* eq = std::strchr(arg, '=');
    if (std::strncmp(arg, "--", 2) != 0 || eq == nullptr) {
      std::fprintf(stderr, "bad flag %s (want --name=value)\n", arg);
      return false;
    }
    const std::string name(arg + 2, eq);
    auto it = setters.find(name);
    if (it == setters.end()) {
      std::fprintf(stderr, "unknown flag %s\n", arg);
      return false;
    }
    it->second(eq + 1);
    seen.insert(name);
  }
  for (const auto& [name, setter] : setters) {
    if (seen.count(name) == 0 && optional.count(name) == 0) {
      std::fprintf(stderr, "missing flag --%s\n", name.c_str());
      return false;
    }
  }
  const uint32_t min_n = std::min({c->sync_n, c->async_n, c->read_n,
                                   c->live_n});
  const double shares =
      c->share_sync + c->share_async + c->share_read + c->share_live;
  if (c->seconds <= 0 || min_n <= c->opinions || c->instances < 1 ||
      c->live_read_rate <= 0 || c->live_reads_per_update <= 0 ||
      c->share_sync <= 0 || c->share_async <= 0 || c->share_read <= 0 ||
      c->share_live <= 0 || std::fabs(shares - 1.0) > 1e-9) {
    std::fprintf(stderr,
                 "invalid configuration (sizes above the opinion count; "
                 "rates, shares and seconds > 0; shares adding up to 1)\n");
    return false;
  }
  return true;
}

std::string JsonMetrics(const std::map<std::string, Metric>& metrics,
                        Report* report) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (!std::isfinite(m.value)) {
      report->Fail("metric " + name + " is not finite");
      continue;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  if (!ParseFlags(argc, argv, &config)) return 2;
  // Before any thread starts: the helper is a fork of this process.
  if (!e2ebench::StartCalibrationHelper()) {
    std::fprintf(stderr, "cannot start the calibration helper\n");
    return 2;
  }
  e2ebench::EnableTracing(config.trace);

  Report report;
  {
    e2ebench::Inputs inputs;
    if (e2ebench::BuildInputs(config, &inputs, &report)) {
      auto budget = [&](double share) { return config.seconds * share; };
      e2ebench::RunGclrSync(config, inputs, budget(config.share_sync),
                            &report);
      e2ebench::RunGclrAsync(config, inputs, budget(config.share_async),
                             &report);
      e2ebench::RunServeRead(config, &inputs, budget(config.share_read),
                             &report);
      e2ebench::RunServeLive(config, &inputs, budget(config.share_live),
                             &report);
      if (config.trace) e2ebench::RunLayerProbes(config, &inputs, &report);
    }
  }
  e2ebench::StopCalibrationHelper();
  report.E2e("peak_rss_mb", dgt::PeakRssMb(), "MB");
  if (config.trace) {
    const std::vector<e2ebench::SpanRecord> spans = e2ebench::CollectSpans();
    e2ebench::RecordSpanLayers(e2ebench::SummarizeSpans(spans),
                               e2ebench::SummarizeTrees(spans), config,
                               &report);
    if (!config.trace_out.empty() &&
        !e2ebench::WriteSpans(spans, config.trace_out)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   config.trace_out.c_str());
    }
  }

  const std::string metrics = JsonMetrics(report.e2e, &report);
  const std::string layers = JsonMetrics(report.layers, &report);
  // dgt-lint: raw-thread-ok(reads the core count for the env record only)
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s, \"layers\": %s, \"env\": {\"nproc\": %u, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\"}}\n",
      report.errors.empty() ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str(),
      layers.c_str(), nproc, E2EBENCH_COMPILER,
      E2EBENCH_BUILD_TYPE);
  return report.errors.empty() ? 0 : 1;
}
