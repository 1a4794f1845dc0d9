// SyncPushSum: the synchronous differential push-sum executor (the
// machinery of the paper's Algorithms 1 and 2), written once and
// instantiated per value policy (gossip/gossip_state.h) — the scalar,
// dense-vector and sparse-vector front-ends in scalar_engine.h,
// vector_engine.h and sparse_vector_engine.h only validate and convert.
//
// Every step, each node i splits its state into k_i + 1 equal shares,
// keeps one, and pushes one to each of k_i randomly chosen neighbours
// (k_i per PushStrategy); a push to a stopped node, or a lost one,
// returns its share to the sender. A step runs in two phases (see
// step_plan.h): BuildStepPlan draws every push and bins the deliveries
// per receiver in ascending-sender order, then every receiver folds its
// list through the policy's SyncFold and evaluates the convergence test.
// Each fold writes only its own receiver's slots, so receivers shard
// across the pool, and results are bit-for-bit identical at every thread
// count (tests/gossip/parallel_equivalence_test.cc).
//
// Termination follows the paper's protocol: a node announces convergence
// to its neighbours once its estimate moved by at most the policy's
// threshold (xi for scalars, N xi for eq. (7)) in convergence_rounds
// steps in which it heard from somebody else (|S| > 1) and held gossip
// weight; it stops once it and all its neighbours have announced. The
// run ends when every node has stopped.

#ifndef DGT_GOSSIP_SYNC_PUSH_SUM_H_
#define DGT_GOSSIP_SYNC_PUSH_SUM_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <functional>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "gossip/gossip_state.h"
#include "gossip/options.h"
#include "gossip/step_plan.h"
#include "graph/graph.h"

namespace dgt {

template <typename Policy>
struct SyncPushSumResult {
  std::vector<typename Policy::Value> values;  // final node-resident state
  GossipRunStats stats;
};

template <typename Policy>
class SyncPushSum {
 public:
  using Value = typename Policy::Value;
  // Called after every step with the installed state.
  using StepObserver = std::function<void(const std::vector<Value>&)>;

  // `graph` must outlive the executor. Disconnected graphs are allowed;
  // each component converges to its own aggregate.
  SyncPushSum(const Graph* graph, GossipOptions options)
      : graph_(graph), options_(options) {
    assert(graph_ != nullptr);
    push_counts_.resize(graph_->num_nodes());
    for (NodeId u = 0; u < graph_->num_nodes(); ++u) {
      push_counts_[u] = PushCount(graph_->adjacency(), u, options_);
    }
  }

  const Graph& graph() const { return *graph_; }
  const GossipOptions& options() const { return options_; }
  // Per-node push counts under the configured strategy.
  const std::vector<uint32_t>& push_counts() const { return push_counts_; }

  // Runs to convergence (or options.max_steps) on `pool`. `init` holds
  // one value per node, each passing Policy::Validate; `use_count` says
  // whether the count channel is carried. Fails with InvalidArgument on a
  // malformed or non-finite value, a negative gossip weight, or an xi
  // that is not positive and finite.
  Result<SyncPushSumResult<Policy>> Run(
      std::vector<Value> init, bool use_count, ThreadPool& pool,
      const StepObserver& on_step = nullptr) const {
    const uint32_t n = graph_->num_nodes();
    DGT_RETURN_IF_ERROR(ValidateInitialState<Policy>(init, n, use_count));
    DGT_RETURN_IF_ERROR(ValidateXi(options_.xi));

    Rng rng(options_.seed);
    typename Policy::SyncFold fold(init, use_count, options_.ratio_sentinel);
    std::vector<Value>& state = init;
    // Next-step state, installed after every receiver has folded (a fold
    // reads other nodes' previous values, so it cannot update in place).
    std::vector<Value> next(n);
    std::vector<uint8_t> converged(n, 0), stopped(n, 0);
    // Consecutive qualifying steps towards the convergence announcement.
    std::vector<uint32_t> streak(n, 0);
    // Per-node accounting for the Table 2 metric.
    std::vector<uint64_t> node_sent(n, 0);
    std::vector<uint32_t> node_active_steps(n, 0);

    SyncPushSumResult<Policy> res;
    GossipRunStats& stats = res.stats;
    // One-time degree announcements, needed only when neighbour degrees
    // feed the differential push count k_i (plain push uses a constant k).
    if (options_.strategy == PushStrategy::kDifferential) {
      stats.control_messages += graph_->DegreeSum();
      for (NodeId i = 0; i < n; ++i) node_sent[i] += graph_->Degree(i);
    }

    std::atomic<uint32_t> num_stopped{0};
    // Isolated nodes can never hear from anybody: converge and stop them
    // immediately.
    for (NodeId i = 0; i < n; ++i) {
      if (graph_->Degree(i) != 0) continue;
      converged[i] = stopped[i] = 1;
      num_stopped.fetch_add(1, std::memory_order_relaxed);
    }

    const double threshold = Policy::ConvergenceThreshold(n, options_.xi);
    std::atomic<uint64_t> control_messages{0};
    // Announces convergence to all of i's neighbours. Only i's own
    // iteration of a sharded pass calls it.
    auto announce = [&](NodeId i) {
      converged[i] = 1;
      control_messages.fetch_add(graph_->Degree(i), std::memory_order_relaxed);
      node_sent[i] += graph_->Degree(i);
    };

    StepPlan plan;
    uint32_t step = 0;
    while (num_stopped.load(std::memory_order_relaxed) < n &&
           step < options_.max_steps) {
      ++step;

      // Phase A: draw every node's pushes and bin them per receiver.
      BuildStepPlan(graph_->adjacency(), options_, push_counts_, stopped, step,
                    rng, rng, pool, plan);
      stats.gossip_messages += plan.pushes;
      fold.BeginStep(plan, stopped, state);

      // Phase B: fold each receiver's contributions and count its
      // convergence evidence. A step counts towards the streak when the
      // node heard from somebody else and holds gossip weight, and moved
      // by at most the threshold; a step where it heard something and
      // moved more resets the streak; silent steps carry no evidence.
      pool.ParallelFor(n, [&](size_t, size_t begin, size_t end) {
        for (size_t idx = begin; idx < end; ++idx) {
          const NodeId i = static_cast<NodeId>(idx);
          if (stopped[i]) continue;
          ++node_active_steps[i];
          node_sent[i] += plan.k_used[i];
          // A converged node's test result is discarded, so its fold
          // may skip the test.
          const FoldOutcome f =
              fold.Fold(i, plan, state, next[i],
                        converged[i] ? kSkipConvergenceTest : threshold);
          if (converged[i]) continue;
          if (plan.senders[i] >= 1 && f.has_weight) {
            streak[i] = f.change <= threshold ? streak[i] + 1 : 0;
          }
          if (streak[i] >= options_.convergence_rounds) announce(i);
        }
      });
      fold.EndStep(plan, stopped, next);

      // Install the folded state. Stopped nodes are frozen: nothing was
      // delivered to them (senders bounced instead).
      for (NodeId i = 0; i < n; ++i) {
        if (!stopped[i]) std::swap(state[i], next[i]);
      }

      // A node whose neighbours have ALL stopped can never hear from
      // anybody again, so it adopts its current estimate and announces.
      pool.ParallelFor(n, [&](size_t, size_t begin, size_t end) {
        for (size_t idx = begin; idx < end; ++idx) {
          const NodeId i = static_cast<NodeId>(idx);
          if (stopped[i] || converged[i] || graph_->Degree(i) == 0) continue;
          const auto& nbrs = graph_->Neighbors(i);
          if (std::all_of(nbrs.begin(), nbrs.end(),
                          [&](NodeId v) { return stopped[v] != 0; })) {
            announce(i);
          }
        }
      });

      // A node stops once it and all its neighbours have converged.
      pool.ParallelFor(n, [&](size_t, size_t begin, size_t end) {
        for (size_t idx = begin; idx < end; ++idx) {
          const NodeId i = static_cast<NodeId>(idx);
          if (stopped[i] || !converged[i]) continue;
          const auto& nbrs = graph_->Neighbors(i);
          if (std::all_of(nbrs.begin(), nbrs.end(),
                          [&](NodeId v) { return converged[v] != 0; })) {
            stopped[i] = 1;
            num_stopped.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });

      if (on_step) on_step(state);
    }

    stats.control_messages += control_messages.load(std::memory_order_relaxed);
    stats.steps = step;
    stats.converged = num_stopped.load(std::memory_order_relaxed) == n;
    stats.peak_state_nonzeros = fold.peak_state_nonzeros();
    double per_step_sum = 0.0;
    for (NodeId i = 0; i < n; ++i) {
      per_step_sum += static_cast<double>(node_sent[i]) /
                      static_cast<double>(std::max(node_active_steps[i], 1u));
    }
    stats.mean_messages_per_active_node_step =
        n > 0 ? per_step_sum / static_cast<double>(n) : 0.0;
    res.values = std::move(state);
    return res;
  }

 private:
  const Graph* graph_;
  GossipOptions options_;
  std::vector<uint32_t> push_counts_;
};

}  // namespace dgt

#endif  // DGT_GOSSIP_SYNC_PUSH_SUM_H_
