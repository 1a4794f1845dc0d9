#include "reputation/aggregation.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "common/thread_pool.h"
#include "gossip/gossip_state.h"
#include "gossip/scalar_engine.h"
#include "gossip/sync_push_sum.h"

namespace dgt {

namespace {

Status ValidateInputs(const Graph& graph, const TrustMatrix& trust) {
  if (graph.num_nodes() != trust.num_nodes()) {
    return Status::InvalidArgument(
        "graph and trust matrix disagree on node count: " +
        std::to_string(graph.num_nodes()) + " vs " +
        std::to_string(trust.num_nodes()));
  }
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("empty network");
  }
  return Status::OK();
}

// Runs the vector gossip (variants 3/4) from `init` on the executor
// instance options.engine selects and returns the final rows. The dense
// instance densifies `init`, runs the same protocol, and hands back each
// dense row as a sparse row with every column present, so both instances
// feed one post-processing pass.
Result<SyncPushSumResult<SparseVectorGossipPolicy>> RunVectorGossip(
    const Graph& graph, std::vector<SparseVectorRow> init, bool use_count,
    const AggregationOptions& options, ThreadPool& pool) {
  if (options.engine == VectorGossipEngine::kSparse) {
    return SyncPushSum<SparseVectorGossipPolicy>(&graph, options.gossip)
        .Run(std::move(init), use_count, pool);
  }
  const uint32_t n = graph.num_nodes();
  std::vector<DenseGossipData> dense(n);
  for (NodeId i = 0; i < n; ++i) {
    dense[i].y.assign(n, 0.0);
    dense[i].g.assign(n, 0.0);
    if (use_count) dense[i].c.assign(n, 0.0);
    const SparseVectorRow& row = init[i];
    for (size_t k = 0; k < row.nnz(); ++k) {
      dense[i].y[row.cols[k]] = row.y[k];
      dense[i].g[row.cols[k]] = row.g[k];
      if (use_count) dense[i].c[row.cols[k]] = row.c[k];
    }
  }
  DGT_ASSIGN_OR_RETURN(
      auto run, SyncPushSum<DenseVectorGossipPolicy>(&graph, options.gossip)
                    .Run(std::move(dense), use_count, pool));
  SyncPushSumResult<SparseVectorGossipPolicy> out;
  out.stats = run.stats;
  out.values.resize(n);
  for (NodeId i = 0; i < n; ++i) {
    SparseVectorRow& row = out.values[i];
    row.cols.resize(n);
    std::iota(row.cols.begin(), row.cols.end(), 0u);
    row.y = std::move(run.values[i].y);
    row.g = std::move(run.values[i].g);
    row.c = std::move(run.values[i].c);
  }
  return out;
}

// yhat_row[j] for observer i (see BuildNeighborhoodWeighting), accumulated
// sparsely over the rated nodes' opinion rows in ascending node order:
// O(|rated_i| * |row|) per observer, engine-independent.
void FillYhatRow(
    const std::vector<std::vector<std::pair<NodeId, double>>>& sorted_rows,
    const WeightTable& table, std::vector<double>* yhat_row) {
  std::fill(yhat_row->begin(), yhat_row->end(), 0.0);
  for (const auto& [k, w] : table.SortedEntries()) {
    const double excess = w - 1.0;
    if (excess == 0.0) continue;
    for (const auto& [j, t] : sorted_rows[k]) (*yhat_row)[j] += excess * t;
  }
}

// yhat_I(j) = sum over I's neighbours k of (w_Ik - 1) * t_kj, and the
// matching denominator excess sum. The neighbour feedback reaching I is a
// pre-round push of direct-interaction values (paper Fig. 1); its message
// cost is one vector per edge direction, accounted by the caller.
struct NeighborhoodWeighting {
  std::vector<double> yhat;        // per observer, for the fixed target
  std::vector<double> excess_den;  // per observer
};

NeighborhoodWeighting BuildNeighborhoodWeighting(
    const Graph& graph, const TrustMatrix& trust,
    const std::vector<WeightTable>& tables, NodeId j) {
  // The weighting set is the observer's interaction set (the paper's
  // neighbourhood — "neighbourhood between two nodes is based upon the
  // interaction between them"); all other nodes carry weight exactly 1
  // and contribute nothing to either sum.
  const uint32_t n = graph.num_nodes();
  NeighborhoodWeighting out;
  out.yhat.assign(n, 0.0);
  out.excess_den.assign(n, 0.0);
  for (NodeId i = 0; i < n; ++i) {
    // Sorted iteration: the numerator is a float accumulation, so hash
    // order would tie the result to the trust matrix's insertion history.
    double num = 0.0;
    for (const auto& [k, w] : tables[i].SortedEntries()) {
      num += (w - 1.0) * trust.Get(k, j);
    }
    out.yhat[i] = num;
    out.excess_den[i] = tables[i].TotalExcessWeight();
  }
  return out;
}

Result<std::vector<WeightTable>> BuildAllWeightTables(
    const TrustMatrix& trust, const WeightParams& params) {
  std::vector<WeightTable> tables;
  tables.reserve(trust.num_nodes());
  for (NodeId i = 0; i < trust.num_nodes(); ++i) {
    DGT_ASSIGN_OR_RETURN(WeightTable t, WeightTable::Build(trust, i, params));
    tables.push_back(std::move(t));
  }
  return tables;
}

// Variant 4's observer post-processing over the final gossip rows, shared
// by the synchronous and event-driven paths. Observer i's output for
// target j is (yhat_i(j) + est) / (excess_den_i + count_est) with est = y/g
// and count_est = c/g (N under kAllNodes); columns without gossip weight
// stay at 0. yhat_row[j] for observer i is accumulated sparsely over the
// rated nodes' opinion rows (the observer's interaction set; everyone
// else has weight exactly 1): O(sum_i |rated_i| * |row|). Observers are
// independent, so they shard across `pool`; each writes only its own
// output row.
Result<std::vector<std::vector<double>>> AssembleGclr(
    const TrustMatrix& trust, const std::vector<SparseVectorRow>& rows,
    const WeightParams& weights, DenominatorMode denominator,
    ThreadPool& pool) {
  const uint32_t n = trust.num_nodes();
  DGT_ASSIGN_OR_RETURN(std::vector<WeightTable> tables,
                       BuildAllWeightTables(trust, weights));
  // Sorted (column, t) rows: the deterministic sparse iteration order.
  std::vector<std::vector<std::pair<NodeId, double>>> sorted_rows(n);
  for (NodeId i = 0; i < n; ++i) sorted_rows[i] = trust.SortedRow(i);
  std::vector<std::vector<double>> estimates(n, std::vector<double>(n, 0.0));
  pool.ParallelFor(n, [&](size_t, size_t begin, size_t end) {
    std::vector<double> yhat_row(n);
    for (size_t i = begin; i < end; ++i) {
      FillYhatRow(sorted_rows, tables[i], &yhat_row);
      const double excess_den = tables[i].TotalExcessWeight();
      const SparseVectorRow& row = rows[i];
      for (size_t k = 0; k < row.nnz(); ++k) {
        if (row.g[k] == 0.0) continue;  // no gossip weight reached i
        const NodeId j = row.cols[k];
        double est = row.y[k] / row.g[k];
        double count_est = denominator == DenominatorMode::kAllNodes
                               ? static_cast<double>(n)
                               : row.c[k] / row.g[k];
        double den = excess_den + count_est;
        if (den <= 0.0) continue;
        estimates[i][j] = (yhat_row[j] + est) / den;
      }
    }
  });
  return estimates;
}

}  // namespace

Result<SingleAggregationResult> AggregateGlobalSingle(
    const Graph& graph, const TrustMatrix& trust, NodeId j,
    const AggregationOptions& options) {
  DGT_RETURN_IF_ERROR(ValidateInputs(graph, trust));
  if (j >= graph.num_nodes()) {
    return Status::OutOfRange("target node out of range");
  }

  std::vector<double> y0 = trust.DenseColumn(j);
  std::vector<double> g0 = trust.OpinionIndicatorColumn(j);

  ScalarPushSum engine(&graph, options.gossip);
  DGT_ASSIGN_OR_RETURN(GossipResult run, engine.Run(y0, g0));

  SingleAggregationResult out;
  out.estimates = std::move(run.ratios);
  // Nodes that never received weight report the sentinel; map it to 0
  // ("no information") for reputation purposes.
  for (NodeId i = 0; i < graph.num_nodes(); ++i) {
    if (run.weights[i] == 0.0) out.estimates[i] = 0.0;
  }
  out.stats = static_cast<const GossipRunStats&>(run);
  return out;
}

Result<SingleAggregationResult> AggregateGclrSingle(
    const Graph& graph, const TrustMatrix& trust, NodeId j,
    const AggregationOptions& options) {
  DGT_RETURN_IF_ERROR(ValidateInputs(graph, trust));
  const uint32_t n = graph.num_nodes();
  if (j >= n) return Status::OutOfRange("target node out of range");

  const NodeId weight_node = options.designate_target_as_weight_node
                                 ? j
                                 : options.designated_weight_node;
  if (weight_node >= n) {
    return Status::OutOfRange("designated weight node out of range");
  }

  std::vector<double> y0 = trust.DenseColumn(j);
  std::vector<double> g0(n, 0.0);
  g0[weight_node] = 1.0;
  std::vector<double> c0 = trust.OpinionIndicatorColumn(j);

  DGT_ASSIGN_OR_RETURN(std::vector<WeightTable> tables,
                       BuildAllWeightTables(trust, options.weights));
  NeighborhoodWeighting nw =
      BuildNeighborhoodWeighting(graph, trust, tables, j);

  ScalarPushSum engine(&graph, options.gossip);
  DGT_ASSIGN_OR_RETURN(GossipResult run, engine.Run(y0, g0, c0));

  SingleAggregationResult out;
  out.estimates.assign(n, 0.0);
  for (NodeId i = 0; i < n; ++i) {
    if (run.weights[i] == 0.0) continue;  // no gossip weight reached i
    double sum_est = run.values[i] / run.weights[i];
    double count_est = options.denominator == DenominatorMode::kAllNodes
                           ? static_cast<double>(n)
                           : run.counts[i] / run.weights[i];
    double denominator = nw.excess_den[i] + count_est;
    if (denominator <= 0.0) continue;
    out.estimates[i] = (nw.yhat[i] + sum_est) / denominator;
  }
  out.stats = static_cast<const GossipRunStats&>(run);
  // Pre-round neighbour feedback pushes: each opinator sends its direct
  // feedback about j to all its neighbours.
  for (NodeId i = 0; i < n; ++i) {
    if (trust.HasOpinion(i, j)) out.stats.control_messages += graph.Degree(i);
  }
  return out;
}

Result<VectorAggregationResult> AggregateGlobalVector(
    const Graph& graph, const TrustMatrix& trust,
    const AggregationOptions& options) {
  DGT_RETURN_IF_ERROR(ValidateInputs(graph, trust));
  const uint32_t n = graph.num_nodes();

  // Node i's sorted opinion row, each opinion with gossip weight 1.
  std::vector<SparseVectorRow> init(n);
  for (NodeId i = 0; i < n; ++i) {
    for (const auto& [j, t] : trust.SortedRow(i)) {
      init[i].cols.push_back(j);
      init[i].y.push_back(t);
      init[i].g.push_back(1.0);
    }
  }
  ThreadPool pool(options.gossip.num_threads);
  DGT_ASSIGN_OR_RETURN(auto run, RunVectorGossip(graph, std::move(init),
                                                 /*use_count=*/false,
                                                 options, pool));

  VectorAggregationResult out;
  out.estimates.assign(n, std::vector<double>(n, 0.0));
  for (NodeId i = 0; i < n; ++i) {
    const SparseVectorRow& row = run.values[i];
    for (size_t k = 0; k < row.nnz(); ++k) {
      // Columns without gossip weight stay at 0 ("no information").
      if (row.g[k] != 0.0) out.estimates[i][row.cols[k]] = row.y[k] / row.g[k];
    }
  }
  out.stats = run.stats;
  return out;
}

std::vector<SparseVectorRow> BuildGclrSparseInit(const TrustMatrix& trust) {
  const uint32_t n = trust.num_nodes();
  std::vector<SparseVectorRow> init(n);
  for (NodeId i = 0; i < n; ++i) {
    SparseVectorRow& r = init[i];
    auto append = [&r](NodeId col, double y, double g, double c) {
      r.cols.push_back(col);
      r.y.push_back(y);
      r.g.push_back(g);
      r.c.push_back(c);
    };
    // For target j, node j itself holds the one-hot gossip weight; merge
    // that diagonal entry into i's sorted opinion row (t_ii cannot exist,
    // so the merge never collides).
    bool diagonal_placed = false;
    for (const auto& [j, t] : trust.SortedRow(i)) {
      if (!diagonal_placed && i < j) {
        append(i, 0.0, 1.0, 0.0);
        diagonal_placed = true;
      }
      append(j, t, 0.0, 1.0);
    }
    if (!diagonal_placed) append(i, 0.0, 1.0, 0.0);
  }
  return init;
}

Result<AsyncVectorAggregationResult> AggregateGclrVectorAsync(
    const Graph& graph, const TrustMatrix& trust,
    const AsyncAggregationOptions& options) {
  DGT_RETURN_IF_ERROR(ValidateInputs(graph, trust));
  AsyncSparsePushSum engine(&graph, options.gossip);
  DGT_ASSIGN_OR_RETURN(
      AsyncSparseGossipResult run,
      engine.Run(BuildGclrSparseInit(trust), /*use_count=*/true));

  // The post-processing pool is constructed only after the engine's own
  // pool is gone.
  ThreadPool pool(options.gossip.num_threads);
  AsyncVectorAggregationResult out;
  DGT_ASSIGN_OR_RETURN(out.estimates,
                       AssembleGclr(trust, run.rows, options.weights,
                                    options.denominator, pool));
  out.stats = run.stats;
  // Pre-round feedback vectors: one per edge direction.
  out.stats.control_messages += graph.DegreeSum();
  return out;
}

Result<VectorAggregationResult> AggregateGclrVector(
    const Graph& graph, const TrustMatrix& trust,
    const AggregationOptions& options) {
  DGT_RETURN_IF_ERROR(ValidateInputs(graph, trust));
  ThreadPool pool(options.gossip.num_threads);
  DGT_ASSIGN_OR_RETURN(
      auto run, RunVectorGossip(graph, BuildGclrSparseInit(trust),
                                /*use_count=*/true, options, pool));

  VectorAggregationResult out;
  DGT_ASSIGN_OR_RETURN(out.estimates,
                       AssembleGclr(trust, run.values, options.weights,
                                    options.denominator, pool));
  out.stats = run.stats;
  // Pre-round feedback vectors: one per edge direction.
  out.stats.control_messages += graph.DegreeSum();
  return out;
}

}  // namespace dgt
