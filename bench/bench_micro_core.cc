// Engineering microbenchmarks (google-benchmark): PA generation, gossip
// step throughput, trust-matrix operations, weight evaluation, and the
// exact reference computations. These are not paper artifacts; they track
// the library's own performance.

#include <benchmark/benchmark.h>

#include <map>
#include <utility>
#include <vector>

#include "baselines/eigen_trust.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "gossip/scalar_engine.h"
#include "gossip/sparse_vector_engine.h"
#include "gossip/sync_push_sum.h"
#include "graph/graph_stats.h"
#include "graph/pa_generator.h"
#include "reputation/aggregation.h"
#include "reputation/reference.h"
#include "trust/trust_estimator.h"
#include "trust/weights.h"

namespace {

using namespace dgt;

void BM_PaGeneration(benchmark::State& state) {
  PaOptions o;
  o.num_nodes = static_cast<uint32_t>(state.range(0));
  o.edges_per_node = 2;
  o.seed = 42;
  for (auto _ : state) {
    auto g = GeneratePreferentialAttachment(o);
    benchmark::DoNotOptimize(g);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PaGeneration)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_GossipConvergence(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  PaOptions po;
  po.num_nodes = n;
  po.edges_per_node = 2;
  po.seed = 42;
  Graph g = GeneratePreferentialAttachment(po).value();
  Rng rng(7);
  std::vector<double> y0(n), g0(n, 1.0);
  for (auto& v : y0) v = rng.NextDouble();
  GossipOptions o;
  o.xi = 1e-4;
  uint64_t seed = 1;
  uint32_t last_steps = 0;
  for (auto _ : state) {
    o.seed = seed++;
    ScalarPushSum engine(&g, o);
    auto r = engine.Run(y0, g0);
    last_steps = r->steps;
    benchmark::DoNotOptimize(r);
  }
  state.counters["steps"] = last_steps;
}
BENCHMARK(BM_GossipConvergence)->Arg(1000)->Arg(10000);

void BM_GossipSingleStep(benchmark::State& state) {
  // Cost of one gossip step, isolated via a max_steps=1 run. Second arg:
  // worker threads (results identical, only wall-clock moves).
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  PaOptions po;
  po.num_nodes = n;
  po.edges_per_node = 2;
  po.seed = 42;
  Graph g = GeneratePreferentialAttachment(po).value();
  Rng rng(7);
  std::vector<double> y0(n), g0(n, 1.0);
  for (auto& v : y0) v = rng.NextDouble();
  GossipOptions o;
  o.xi = 1e-12;
  o.max_steps = 1;
  o.num_threads = static_cast<uint32_t>(state.range(1));
  uint64_t seed = 1;
  for (auto _ : state) {
    o.seed = seed++;
    ScalarPushSum engine(&g, o);
    auto r = engine.Run(y0, g0);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GossipSingleStep)
    ->Args({10000, 1})
    ->Args({100000, 1})
    ->Args({100000, 8});

void BM_SparseVectorGossipStep(benchmark::State& state) {
  // Cost of one sparse vector-gossip step over sparse trust state,
  // isolated via a max_steps=1 run (the per-iteration init copy is
  // O(nonzeros), the same order as the step itself).
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  PaOptions po;
  po.num_nodes = n;
  po.edges_per_node = 2;
  po.seed = 42;
  Graph g = GeneratePreferentialAttachment(po).value();
  TrustMatrix t = bench_util::MakeSparseTrust(n, 20, 11);
  auto init = BuildGclrSparseInit(t);
  GossipOptions o;
  o.xi = 1e-12;
  o.max_steps = 1;
  o.num_threads = static_cast<uint32_t>(state.range(1));
  uint64_t seed = 1;
  for (auto _ : state) {
    o.seed = seed++;
    SparseVectorPushSum engine(&g, o);
    auto r = engine.Run(init, /*use_count=*/true);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SparseVectorGossipStep)
    ->Args({10000, 1})
    ->Args({10000, 8})
    ->Args({100000, 1})
    ->Args({100000, 8});

// A converged variant-4 state at N nodes (GCLR of all pairs over sparse
// trust, xi = 1e-3): every row holds all N columns. Built once per N.
const std::vector<SparseVectorRow>& ConvergedGclrState(uint32_t n) {
  static std::map<uint32_t, std::vector<SparseVectorRow>> cache;
  auto it = cache.find(n);
  if (it != cache.end()) return it->second;
  Graph g = bench_util::MustMakePaGraph(n, 2, 42);
  TrustMatrix t = bench_util::MakeSparseTrust(n, 20, 11);
  GossipOptions o;
  o.xi = 1e-3;
  o.seed = 3;
  ThreadPool pool(4);
  auto r = SyncPushSum<SparseVectorGossipPolicy>(&g, o).Run(
      BuildGclrSparseInit(t), /*use_count=*/true, pool);
  return cache.emplace(n, std::move(r.value().values)).first->second;
}

void BM_SparseFoldFullRows(benchmark::State& state) {
  // One step seeded with a converged variant-4 state, isolated via a
  // max_steps = 1 run: every inbox is all full rows, so this times the
  // sparse fold's full-row path (BM_SparseVectorGossipStep's first,
  // sparse step never reaches it). Items are merged nonzeros, so the
  // rate reads as time per nonzero. The per-iteration copy of the state
  // is excluded; the run's O(nonzeros) input validation is included.
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Graph g = bench_util::MustMakePaGraph(n, 2, 42);
  const std::vector<SparseVectorRow>& converged = ConvergedGclrState(n);
  GossipOptions o;
  o.xi = 1e-3;
  o.max_steps = 1;
  o.num_threads = static_cast<uint32_t>(state.range(1));
  ThreadPool pool(o.num_threads);
  SyncPushSum<SparseVectorGossipPolicy> engine(&g, o);
  uint64_t merged = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<SparseVectorRow> init = converged;
    state.ResumeTiming();
    auto r = engine.Run(std::move(init), /*use_count=*/true, pool);
    state.PauseTiming();
    benchmark::DoNotOptimize(r);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    for (const SparseVectorRow& row : r->values) merged += row.nnz();
    std::vector<SparseVectorRow>().swap(r->values);  // free, untimed
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(merged));
}
BENCHMARK(BM_SparseFoldFullRows)
    ->Args({800, 1})
    ->Args({800, 4})
    ->Args({2000, 1})
    ->Args({2000, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_AsyncConvergenceTest(benchmark::State& state) {
  // One event-driven firing's convergence test on full rows with the count
  // channel: the current row against the one the previous firing sent.
  // near = 1 moves every ratio by about 1e-5 relative, so the sum stays
  // under the threshold and the walk runs over every column; near = 0
  // compares unrelated rows, so the walk stops at the first column that
  // pushes the sum over. Items are columns.
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  const bool near = state.range(1) != 0;
  using Policy = SparseVectorGossipPolicy;
  Rng rng(7);
  auto random_row = [&] {
    SparseVectorRow row;
    for (uint32_t j = 0; j < n; ++j) {
      row.cols.push_back(j);
      row.y.push_back(rng.NextDouble(0.0, 2.0));
      row.g.push_back(rng.NextDouble(0.01, 1.0));
      row.c.push_back(rng.NextDouble(0.0, 3.0));
    }
    return row;
  };
  const SparseVectorRow prev = random_row();
  SparseVectorRow cur = near ? prev : random_row();
  if (near) {
    for (uint32_t j = 0; j < n; ++j) {
      cur.y[j] *= 1.0 + 1e-5 * rng.NextDouble(-1.0, 1.0);
      cur.c[j] *= 1.0 + 1e-5 * rng.NextDouble(-1.0, 1.0);
    }
  }
  const Policy::Share sent = Policy::Whole(prev);
  const double sentinel = 10.0;
  const double threshold = Policy::ConvergenceThreshold(n, 1e-3);
  bool below = false;
  for (auto _ : state) {
    const double change = Policy::Change(sent, cur, sentinel, threshold);
    benchmark::DoNotOptimize(change);
    below = change <= threshold;
  }
  if (below != near) state.SkipWithError("unexpected convergence decision");
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AsyncConvergenceTest)
    ->Args({500, 1})
    ->Args({500, 0})
    ->Args({1000, 1})
    ->Args({1000, 0});

void BM_SparseGclrVector(benchmark::State& state) {
  // Full variant-4 aggregation through the sparse engine.
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  PaOptions po;
  po.num_nodes = n;
  po.edges_per_node = 2;
  po.seed = 42;
  Graph g = GeneratePreferentialAttachment(po).value();
  TrustMatrix t = bench_util::MakeSparseTrust(n, 20, 11);
  AggregationOptions o;
  o.gossip.xi = 1e-2;
  o.gossip.num_threads = static_cast<uint32_t>(state.range(1));
  uint64_t seed = 1;
  for (auto _ : state) {
    o.gossip.seed = seed++;
    auto r = AggregateGclrVector(g, t, o);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SparseGclrVector)
    ->Args({512, 1})
    ->Args({1024, 1})
    ->Args({1024, 8});

void BM_TrustMatrixSetGet(benchmark::State& state) {
  TrustMatrix t(10000);
  Rng rng(3);
  for (auto _ : state) {
    NodeId i = static_cast<NodeId>(rng.NextBelow(10000));
    NodeId j = static_cast<NodeId>(rng.NextBelow(10000));
    if (i == j) continue;
    benchmark::DoNotOptimize(t.Set(i, j, 0.5));
    benchmark::DoNotOptimize(t.Get(j, i));
  }
}
BENCHMARK(BM_TrustMatrixSetGet);

void BM_WeightEvaluation(benchmark::State& state) {
  WeightParams p;
  p.a = 4.0;
  p.b = 1.0;
  double t = 0.0;
  for (auto _ : state) {
    t += 1e-9;
    if (t > 1.0) t = 0.0;
    benchmark::DoNotOptimize(p.Weight(t));
  }
}
BENCHMARK(BM_WeightEvaluation);

void BM_ExactGclrVector(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  PaOptions po;
  po.num_nodes = n;
  po.edges_per_node = 2;
  po.seed = 42;
  Graph g = GeneratePreferentialAttachment(po).value();
  TrustMatrix t(n);
  Rng rng(7);
  PopulateTrustFromQualities(g, 0.05, rng, &t);
  WeightParams params;
  auto w = WeightTable::Build(t, 0, params).value();
  for (auto _ : state) {
    auto v = ExactGclrVector(t, g, w, DenominatorMode::kOpinators);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ExactGclrVector)->Arg(1000)->Arg(10000);

void BM_EigenTrust(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  PaOptions po;
  po.num_nodes = n;
  po.edges_per_node = 2;
  po.seed = 42;
  Graph g = GeneratePreferentialAttachment(po).value();
  TrustMatrix t(n);
  Rng rng(7);
  PopulateTrustFromQualities(g, 0.05, rng, &t);
  for (auto _ : state) {
    auto r = ComputeEigenTrust(t, {});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EigenTrust)->Arg(1000)->Arg(10000);

void BM_DegreeStats(benchmark::State& state) {
  PaOptions po;
  po.num_nodes = 50000;
  po.edges_per_node = 2;
  po.seed = 42;
  Graph g = GeneratePreferentialAttachment(po).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimatePowerLawExponent(g, 2));
  }
}
BENCHMARK(BM_DegreeStats);

}  // namespace

BENCHMARK_MAIN();
