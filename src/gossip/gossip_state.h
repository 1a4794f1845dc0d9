// Value policies for the gossip executors: the per-node state, the
// in-flight share representation, and the convergence metric, behind one
// small static interface so each executor is written once and
// instantiated for scalar push-sum (paper variants 1/2), dense vector
// push-sum, and the CSR sparse rows that let GCLR variant 4 run at scale.
// The synchronous executor is SyncPushSum<Policy> (gossip/sync_push_sum.h);
// the event-driven one is AsyncEventEngine<Policy> (net/async_engine.h).
//
// Shared:
//   Value     — node-resident mass; moved/mutated only by its owner node.
//   Validate(v, n, use_count) — shape of an initial value for n nodes
//                            (count channel present iff use_count),
//                            finite channels and non-negative gossip
//                            weights.
//   ConvergenceThreshold(n, xi) — xi for scalar, n * xi for vectors.
//
// Event-driven interface (all static, stateless):
//   Share     — an in-flight message: the sender's state as it stood
//               before the split, never modified, plus the scale every
//               receiver applies to it. Vector/sparse shares hold a
//               shared_ptr to that one immutable row, so a firing's k
//               shares and the sender's next convergence test alias a
//               single allocation, freed when the last holder drops it.
//   Split(v, k)            — split v into k+1 equal shares; v becomes the
//                            kept share, the returned Share is sent.
//   Absorb(v, s)           — merge an arriving share (s's state times
//                            s.scale) into v.
//   Whole(v)               — the Share Split(v, 0) would send, leaving v
//                            as it is: a copy of v at scale 1.
//   HasWeight(v)           — any gossip weight present (evidence gate).
//   Change(from, v, sentinel, threshold) — L1 distance between the
//                            estimates of from's state and of v, for the
//                            streak test; columns with zero weight
//                            evaluate at the ratio sentinel, mirroring the
//                            synchronous eq. (7). Ratios are computed on
//                            the fly, and like FoldOutcome::change only
//                            the side of `threshold` is guaranteed: the
//                            walk stops once the sum exceeds it, and at
//                            or below it the sum is exact.
//
// Synchronous interface: a per-run SyncFold, constructed from
// (initial state, use_count, ratio sentinel), with
//   Fold(i, plan, state, next, threshold) — fold receiver i's
//       contribution list (plan.inbox[i], ascending senders; each entry
//       carries `shares` 1/(k_sender + 1)-shares of the sender's state)
//       into `next`, and return the eq. (7) change against i's own
//       previous state plus whether any gossip weight arrived. The change
//       is compared against `threshold` and may stop short once the
//       comparison is decided (see FoldOutcome). Runs concurrently for
//       distinct receivers; it may only write `next` and rows it alone
//       releases.
//   BeginStep(plan, stopped, state), EndStep(plan, stopped, next),
//   peak_state_nonzeros() — per-step bookkeeping around the folds; no-ops
//       except for the sparse policy's ref-counted row release.
// Each Fold reproduces its historical engine's floating-point order
// exactly; tests/gossip/sync_engine_golden_test.cc pins the bits.

#ifndef DGT_GOSSIP_GOSSIP_STATE_H_
#define DGT_GOSSIP_GOSSIP_STATE_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "gossip/step_plan.h"

namespace dgt {

// Fold threshold for a receiver whose convergence test result is
// discarded (it has already announced): every change lies above it, so a
// fold may skip the test altogether.
inline constexpr double kSkipConvergenceTest =
    -std::numeric_limits<double>::infinity();

// One receiver's synchronous fold result.
struct FoldOutcome {
  // Convergence metric against the node's previous state: |ratio change|
  // (plus the count ratio's) for scalars, eq. (7)'s L1 sum for vectors.
  // Only its side of the threshold passed to Fold is guaranteed: the
  // sum's terms are >= 0, so a fold may return a partial sum once that
  // already exceeds the threshold (`change <= threshold` then reads false,
  // exactly as for the full sum). At or below the threshold it is exact.
  double change = 0.0;
  // Any gossip weight in the folded state (a weightless node parks at the
  // sentinel, which is trivially stable and carries no evidence).
  bool has_weight = false;
};

// Per-column ratio num[j] / g[j], or `sentinel` where g[j] == 0 (no
// gossip weight arrived).
std::vector<double> ColumnRatios(const std::vector<double>& num,
                                 const std::vector<double>& g,
                                 double sentinel);

// Base of the SyncFolds: the run's count-channel flag and ratio sentinel,
// and no-op per-step bookkeeping (only the sparse fold keeps any).
class SyncFoldBase {
 public:
  template <typename Value>
  SyncFoldBase(const std::vector<Value>& /*init*/, bool use_count,
               double sentinel)
      : use_count_(use_count), sentinel_(sentinel) {}
  template <typename Value>
  void BeginStep(const StepPlan&, const std::vector<uint8_t>&,
                 const std::vector<Value>&) {}
  template <typename Value>
  void EndStep(const StepPlan&, const std::vector<uint8_t>&,
               const std::vector<Value>&) {}
  uint64_t peak_state_nonzeros() const { return 0; }

 protected:
  bool use_count_;
  double sentinel_;
};

// --- Scalar (paper variants 1/2: one value per node) -------------------

struct ScalarGossipPolicy {
  // y/g is the estimate; c is the optional count channel (zero if unused).
  struct Value {
    double y = 0.0;
    double g = 0.0;
    double c = 0.0;
  };
  // The receiver multiplies: sent * scale is the product the kept share
  // holds, so every channel gets the same bits on both sides.
  struct Share {
    Value sent;
    double scale = 0.0;
  };

  static Status Validate(const Value& v, uint32_t n, bool use_count);
  static Share Split(Value& v, uint32_t k) {
    const double inv = 1.0 / (static_cast<double>(k) + 1.0);
    Share s{v, inv};
    v = {v.y * inv, v.g * inv, v.c * inv};
    return s;
  }
  static void Absorb(Value& v, const Share& s) {
    v.y += s.sent.y * s.scale;
    v.g += s.sent.g * s.scale;
    v.c += s.sent.c * s.scale;
  }
  static Share Whole(const Value& v) { return Share{v, 1.0}; }
  static bool HasWeight(const Value& v) { return v.g != 0.0; }
  // The node's estimate y/g, or the sentinel without gossip weight.
  static double Estimate(const Value& v, double sentinel) {
    return v.g != 0.0 ? v.y / v.g : sentinel;
  }
  // |Δ y/g| only: unlike the synchronous fold, the event-driven scalar
  // test leaves the count channel out. The threshold is ignored.
  static double Change(const Share& from, const Value& v, double sentinel,
                       double /*threshold*/) {
    return std::fabs(Estimate(from.sent, sentinel) - Estimate(v, sentinel));
  }
  static double ConvergenceThreshold(uint32_t /*n*/, double xi) { return xi; }

  // Shares are y/(k+1) per entry; a kept-self entry carrying several
  // shares (bounced pushes) accumulates by repeated adds, not a multiply —
  // the historical serial engine's order. The threshold is ignored.
  class SyncFold : public SyncFoldBase {
   public:
    using SyncFoldBase::SyncFoldBase;
    FoldOutcome Fold(NodeId i, const StepPlan& plan,
                     const std::vector<Value>& state, Value& next,
                     double threshold) const;
  };
};

// --- Dense vector (variants 3/4 at small N, for cross-validation) ------

// Parallel dense channels; c is empty when the count channel is unused.
struct DenseGossipData {
  std::vector<double> y;
  std::vector<double> g;
  std::vector<double> c;
};

struct DenseVectorGossipPolicy {
  using Value = DenseGossipData;
  struct Share {
    std::shared_ptr<const DenseGossipData> data;
    double scale = 0.0;
  };

  static Status Validate(const Value& v, uint32_t n, bool use_count);
  static Share Split(Value& v, uint32_t k);
  static void Absorb(Value& v, const Share& s);
  static Share Whole(const Value& v);
  static bool HasWeight(const Value& v);
  // Every ratio term in column order, then every count term.
  static double Change(const Share& from, const Value& v, double sentinel,
                       double threshold);
  static double ConvergenceThreshold(uint32_t n, double xi) {
    return static_cast<double>(n) * xi;
  }

  // Every entry adds sender_row * (shares / (k + 1)) over all N columns;
  // the L1 test then walks the columns in order. The threshold is
  // ignored: the change is always the full sum.
  class SyncFold : public SyncFoldBase {
   public:
    using SyncFoldBase::SyncFoldBase;
    FoldOutcome Fold(NodeId i, const StepPlan& plan,
                     const std::vector<Value>& state, Value& next,
                     double threshold) const;
  };
};

// --- CSR sparse row (variant 4 / GCLR at scale) ------------------------

// One node's gossip state: sorted sparse (column, y, g[, c]) entries.
// `cols` is strictly increasing; `y`/`g` (and `c` when the count channel
// is active) are parallel to it. Absent columns hold exact zeros. One
// entry costs 28 bytes (a u32 column plus three doubles) with the count
// channel.
struct SparseVectorRow {
  std::vector<uint32_t> cols;
  std::vector<double> y;
  std::vector<double> g;
  std::vector<double> c;  // empty when the count channel is unused

  size_t nnz() const { return cols.size(); }
};

struct SparseVectorGossipPolicy {
  using Value = SparseVectorRow;
  struct Share {
    std::shared_ptr<const SparseVectorRow> row;
    double scale = 0.0;
  };

  static Status Validate(const Value& v, uint32_t n, bool use_count);
  // Split and Absorb have two paths, chosen by the rows' structure. A row
  // whose cols are exactly 0..m-1 is *full* (columns are strictly
  // increasing, so cols.back() == m - 1 says so in O(1)). Split of a full
  // row scales it by index; Absorb of a full share into a full resident
  // row of the same length merges in place by index. Every other shape
  // takes a 2-way sorted-column merge into a fresh row. Both paths run
  // the same per-column operations (0.0, += resident, += share * scale)
  // and drop columns that come out exact zero on every channel, so they
  // agree bit for bit; tests/gossip/sparse_absorb_paths_test.cc checks it.
  static Share Split(Value& v, uint32_t k);
  static void Absorb(Value& v, const Share& s);
  static Share Whole(const Value& v);
  static bool HasWeight(const Value& v);
  // Per column, the ratio term then the count term, over a two-pointer
  // union walk of the two rows' columns: a column present in one row
  // only contributes |ratio - sentinel| exactly like the synchronous
  // sparse fold's L1 test.
  static double Change(const Share& from, const Value& v, double sentinel,
                       double threshold);
  static double ConvergenceThreshold(uint32_t n, double xi) {
    return static_cast<double>(n) * xi;
  }

  // Merge-on-receive, two paths chosen by the inbox's structure:
  //  - k-way: a sorted-column walk over the receiver's contribution list,
  //    so the cost follows the nonzeros contributed, not N, and no dense
  //    inbox is ever materialised. Contributions combine in
  //    ascending-sender order per column, and columns outside the merged
  //    set contribute exact zeros (sentinel minus sentinel) to eq. (7), so
  //    the result is bit-for-bit the dense fold's.
  //  - full-row: when every contributing row holds all N columns (variant
  //    4 once mass has mixed: the state fills to ~N^2 nonzeros), column j
  //    sits at index j of every row, so the fold accumulates whole rows by
  //    index — 0.0 + first product, then += each later product in inbox
  //    order, the k-way walk's exact per-column operation sequence — and
  //    walks eq. (7) by index, stopping once the running sum exceeds the
  //    threshold. Columns that come out exact zero on every channel (in
  //    variant 4 only through underflow) are compacted out as the k-way
  //    walk drops them, so rows, nnz and the peak count stay identical.
  // tests/gossip/sparse_fold_paths_test.cc checks the paths against each
  // other bit for bit.
  //
  // Previous-step rows are reference-counted and released as soon as
  // their last consumer merged (the count is atomic: under a threaded
  // merge the last consumer may finish on any worker), so the live
  // footprint stays near one copy of the state, not two.
  class SyncFold : public SyncFoldBase {
   public:
    SyncFold(const std::vector<Value>& init, bool use_count, double sentinel);
    void BeginStep(const StepPlan& plan, const std::vector<uint8_t>& stopped,
                   const std::vector<Value>& state);
    FoldOutcome Fold(NodeId i, const StepPlan& plan,
                     std::vector<Value>& state, Value& next,
                     double threshold);
    void EndStep(const StepPlan& plan, const std::vector<uint8_t>& stopped,
                 const std::vector<Value>& next);
    // Peak sum of per-row nonzeros across all steps — the working-set size
    // the large-N benches report.
    uint64_t peak_state_nonzeros() const { return peak_nnz_; }

   private:
    FoldOutcome FoldFullRows(NodeId i, const StepPlan& plan,
                             const std::vector<Value>& state, Value& next,
                             double threshold) const;
    FoldOutcome FoldKWay(NodeId i, const StepPlan& plan,
                         const std::vector<Value>& state, Value& next) const;

    // 0..N-1: the `cols` of a full row.
    std::vector<uint32_t> all_cols_;
    std::vector<std::atomic<uint32_t>> refs_;
    // Serial-replay bookkeeping for peak_nnz_ (see EndStep).
    std::vector<uint32_t> replay_refs_;
    std::vector<uint64_t> prev_nnz_;
    uint64_t total_nnz_ = 0;
    uint64_t peak_nnz_ = 0;
  };
};

// Checks the convergence tolerance: positive and finite. Shared by every
// gossip executor.
Status ValidateXi(double xi);

// Checks a run's initial state: one value per node, each passing
// Policy::Validate. Shared by the synchronous and event-driven executors.
template <typename Policy>
Status ValidateInitialState(const std::vector<typename Policy::Value>& init,
                            uint32_t n, bool use_count) {
  if (init.size() != n) {
    return Status::InvalidArgument("initial state must have N entries");
  }
  for (uint32_t i = 0; i < n; ++i) {
    Status st = Policy::Validate(init[i], n, use_count);
    if (!st.ok()) {
      return Status::InvalidArgument("node " + std::to_string(i) + ": " +
                                     st.message());
    }
  }
  return Status::OK();
}

}  // namespace dgt

#endif  // DGT_GOSSIP_GOSSIP_STATE_H_
