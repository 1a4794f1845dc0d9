#include "gossip/churn_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/thread_pool.h"
#include "gossip/gossip_state.h"
#include "gossip/step_plan.h"

namespace dgt {

namespace {

// Mutable per-node protocol state (the gossip pair lives in `mass`).
struct NodeState {
  double prev_ratio = 0.0;
  uint32_t streak = 0;
  uint8_t alive = 0;
  uint8_t converged = 0;
  uint8_t stopped = 0;
};

}  // namespace

ChurnPushSum::ChurnPushSum(const Graph& initial, GossipOptions gossip,
                           ChurnOptions churn)
    : initial_(initial), gossip_(gossip), churn_(churn) {}

Result<ChurnGossipResult> ChurnPushSum::Run(const std::vector<double>& y0,
                                            const std::vector<double>& g0) {
  const uint32_t n0 = initial_.num_nodes();
  if (y0.size() != n0 || g0.size() != n0) {
    return Status::InvalidArgument("y0/g0 must match the initial graph");
  }
  for (NodeId u = 0; u < n0; ++u) {
    DGT_RETURN_IF_ERROR(
        ScalarGossipPolicy::Validate({y0[u], g0[u], 0.0}, n0, false));
  }
  DGT_RETURN_IF_ERROR(ValidateXi(gossip_.xi));
  if (churn_.leave_prob < 0.0 || churn_.leave_prob >= 1.0) {
    return Status::InvalidArgument("leave_prob must lie in [0, 1)");
  }
  if (churn_.join_rate < 0.0) {
    return Status::InvalidArgument("join_rate must be non-negative");
  }

  Rng rng(gossip_.seed);
  Rng churn_rng(churn_.seed);
  ThreadPool pool(gossip_.num_threads);

  // Mutable adjacency seeded from the initial graph.
  AdjacencyLists adj = initial_.adjacency();

  std::vector<NodeState> node(n0);
  std::vector<ScalarGossipPolicy::Value> mass(n0), next;
  double total_y = 0.0, total_g = 0.0;
  for (NodeId u = 0; u < n0; ++u) {
    node[u].alive = 1;
    mass[u] = {y0[u], g0[u]};
    total_y += y0[u];
    total_g += g0[u];
  }

  ChurnGossipResult res;
  // Degree announcements: only differential push needs neighbour degrees.
  if (gossip_.strategy == PushStrategy::kDifferential) {
    res.control_messages += initial_.DegreeSum();
  }

  auto ratio_of = [&](NodeId i) {
    return ScalarGossipPolicy::Estimate(mass[i], gossip_.ratio_sentinel);
  };
  for (NodeId u = 0; u < n0; ++u) node[u].prev_ratio = ratio_of(u);

  auto depart = [&](NodeId u) {
    // Handover: the leaving node passes its gossip pair to a live
    // neighbour (preferably one still gossiping), or any live node.
    auto first_neighbor = [&](bool need_gossiping) {
      for (NodeId v : adj[u]) {
        if (node[v].alive && !(need_gossiping && node[v].stopped)) return v;
      }
      return u;
    };
    NodeId heir = first_neighbor(true);
    if (heir == u) heir = first_neighbor(false);
    for (size_t v = 0; heir == u && v < node.size(); ++v) {
      if (v != u && node[v].alive) heir = static_cast<NodeId>(v);
    }
    if (heir != u) {
      ScalarGossipPolicy::Absorb(mass[heir],
                                 ScalarGossipPolicy::Whole(mass[u]));
      ++res.control_messages;  // the handover message
    }
    // else: last node standing departs with its mass; nothing to do.
    node[u].alive = 0;
    mass[u] = {};
    for (NodeId v : adj[u]) {
      auto& lst = adj[v];
      lst.erase(std::remove(lst.begin(), lst.end(), u), lst.end());
    }
    adj[u].clear();
    ++res.departures;
  };

  auto join = [&]() {
    if (node.size() >= churn_.max_nodes) return;
    // Preferential attachment over the live population.
    std::vector<NodeId> live;
    std::vector<double> weight;
    for (NodeId v = 0; v < node.size(); ++v) {
      if (!node[v].alive) continue;
      live.push_back(v);
      weight.push_back(static_cast<double>(adj[v].size()) + 1.0);
    }
    if (live.empty()) return;
    NodeId id = static_cast<NodeId>(node.size());
    node.push_back(NodeState{});
    adj.emplace_back();
    mass.push_back({churn_rng.NextDouble(), 1.0});
    NodeState& fresh = node.back();
    fresh.alive = 1;
    total_y += mass.back().y;
    total_g += 1.0;
    fresh.prev_ratio = mass.back().y;

    uint32_t m = std::min<uint32_t>(churn_.join_edges,
                                    static_cast<uint32_t>(live.size()));
    std::vector<NodeId> chosen;
    while (chosen.size() < m) {
      NodeId t = live[churn_rng.NextDiscrete(weight)];
      if (std::find(chosen.begin(), chosen.end(), t) == chosen.end()) {
        chosen.push_back(t);
      }
    }
    for (NodeId t : chosen) {
      adj[id].push_back(t);
      adj[t].push_back(id);
    }
    res.control_messages += 2ull * m;  // joining handshakes + degree push
    ++res.arrivals;
    // An arrival changes the quantity being averaged (fresh mass), so the
    // round restarts: every live node resumes gossiping (the paper reruns
    // gossip rounds as membership changes).
    for (auto& s : node) {
      if (!s.alive) continue;
      s.converged = 0;
      s.stopped = 0;
      s.streak = 0;
    }
  };

  // Two-phase step state (see step_plan.h), planned over the current
  // overlay. `inactive` marks departed, stopped and isolated nodes: they
  // neither push nor receive (a push to one bounces).
  StepPlan plan;
  std::vector<uint8_t> inactive;
  std::vector<uint32_t> push_counts;
  uint32_t step = 0;
  uint32_t live_unstopped = n0;

  auto count_unstopped = [&]() {
    uint32_t c = 0;
    for (const auto& s : node) {
      if (s.alive && !s.stopped) ++c;
    }
    return c;
  };

  while (step < gossip_.max_steps) {
    ++step;

    // Churn phase (only while active).
    if (step <= churn_.churn_steps) {
      for (NodeId u = 0; u < node.size(); ++u) {
        if (node[u].alive && churn_rng.NextBernoulli(churn_.leave_prob)) {
          depart(u);
        }
      }
      double expect = churn_.join_rate;
      while (expect >= 1.0) {
        join();
        expect -= 1.0;
      }
      if (expect > 0.0 && churn_rng.NextBernoulli(expect)) join();
      live_unstopped = count_unstopped();
    }

    // k_i over the current overlay.
    const uint32_t n = static_cast<uint32_t>(node.size());
    inactive.assign(n, 0);
    push_counts.assign(n, 1);
    for (NodeId i = 0; i < n; ++i) {
      inactive[i] = !node[i].alive || node[i].stopped || adj[i].empty();
      if (!inactive[i]) push_counts[i] = PushCount(adj, i, gossip_);
    }

    // Phase A: draw pushes and bin deliveries per receiver. A departed
    // node has left every adjacency list, so a push can only bounce off a
    // stopped neighbour (or be lost). Node ids are never reused, so a
    // joined node's counter-mode streams are fresh.
    BuildStepPlan(adj, gossip_, push_counts, inactive, step, rng, rng, pool,
                  plan);
    res.gossip_messages += plan.pushes;

    // Phase B: per-receiver fold in the scalar policy's float order
    // (gossip_state.h). Reads only previous-step mass; results land in
    // `next` until the apply pass installs them.
    next.resize(n);
    const ScalarGossipPolicy::SyncFold fold(mass, /*use_count=*/false,
                                            gossip_.ratio_sentinel);
    pool.ParallelFor(n, [&](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        if (inactive[i]) continue;
        fold.Fold(static_cast<NodeId>(i), plan, mass, next[i],
                  kSkipConvergenceTest);
      }
    });

    // Apply + convergence evidence.
    std::atomic<uint64_t> announce_messages{0};
    pool.ParallelFor(n, [&](size_t, size_t begin, size_t end) {
      for (size_t idx = begin; idx < end; ++idx) {
        const NodeId i = static_cast<NodeId>(idx);
        NodeState& s = node[i];
        if (!s.alive || s.stopped) continue;
        if (adj[i].empty()) {
          // Churn isolated this node: it can never hear anything again.
          if (!s.converged) s.converged = 1;
          s.stopped = 1;
          continue;
        }
        mass[i] = next[i];
        double r = ratio_of(i);
        if (!s.converged) {
          if (plan.senders[i] >= 1 && mass[i].g != 0.0) {
            s.streak =
                std::fabs(r - s.prev_ratio) <= gossip_.xi ? s.streak + 1 : 0;
          }
          if (s.streak >= gossip_.convergence_rounds) {
            s.converged = 1;
            announce_messages.fetch_add(adj[i].size(),
                                        std::memory_order_relaxed);
          }
        }
        s.prev_ratio = r;
      }
    });
    res.control_messages += announce_messages.load(std::memory_order_relaxed);

    // Starvation escape + stop rule (membership-aware).
    for (NodeId i = 0; i < n; ++i) {
      NodeState& s = node[i];
      if (!s.alive || s.stopped) continue;
      bool all_stopped = true, all_converged = true;
      for (NodeId v : adj[i]) {
        if (!node[v].stopped) all_stopped = false;
        if (!node[v].converged) all_converged = false;
      }
      if (!s.converged && all_stopped && !adj[i].empty()) {
        s.converged = 1;
        res.control_messages += adj[i].size();
      }
      if (s.converged && all_converged) s.stopped = 1;
    }

    live_unstopped = count_unstopped();
    if (step > churn_.churn_steps && live_unstopped == 0) break;
  }

  const uint32_t n = static_cast<uint32_t>(node.size());
  res.steps = step;
  res.converged = (live_unstopped == 0);
  res.expected_ratio = total_g > 0.0 ? total_y / total_g : 0.0;
  res.ratios.assign(n, 0.0);
  res.alive.assign(n, 0);
  for (NodeId i = 0; i < n; ++i) {
    res.alive[i] = node[i].alive;
    res.ratios[i] = ratio_of(i);
    if (node[i].alive) ++res.live_count;
  }
  return res;
}

}  // namespace dgt
