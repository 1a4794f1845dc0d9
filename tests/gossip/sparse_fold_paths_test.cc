// SparseVectorGossipPolicy::SyncFold has two merge paths, chosen by the
// inbox's structure: a full-row path when every contributing row holds
// all N columns, and the k-way sorted-column walk otherwise. These tests
// drive the fold directly on synthetic inboxes and check the paths
// against each other bit for bit.
//
// The same rows fold twice: once in an N-node state, where full rows take
// the full-row path, and once in an (N + 1)-node state whose extra row
// sits outside the inbox, so the very same rows count as partial and take
// the k-way walk. The dense fold (the historical reference the sparse
// engine is pinned to) is a third oracle. Merged rows, nnz and has_weight
// must agree exactly, and so must the convergence decision
// `change <= threshold`; the change itself must agree whenever the
// decision is "converged" (a fold may stop its eq. (7) walk early only
// once the threshold is exceeded).

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "gossip/gossip_state.h"
#include "gossip/step_plan.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

constexpr uint32_t kN = 24;
constexpr double kSentinel = 10.0;

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

void ExpectSameBits(const std::vector<double>& a, const std::vector<double>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(Bits(a[k]), Bits(b[k])) << what << "[" << k << "]";
  }
}

// A row over columns `cols` with positive random channels.
SparseVectorRow RandomRow(const std::vector<uint32_t>& cols, bool use_count,
                          Rng& rng) {
  SparseVectorRow row;
  row.cols = cols;
  for (size_t k = 0; k < cols.size(); ++k) {
    row.y.push_back(rng.NextDouble(0.0, 2.0));
    row.g.push_back(rng.NextDouble(0.01, 1.0));
    if (use_count) row.c.push_back(rng.NextDouble(0.0, 3.0));
  }
  return row;
}

std::vector<uint32_t> AllColumns() {
  std::vector<uint32_t> cols(kN);
  for (uint32_t j = 0; j < kN; ++j) cols[j] = j;
  return cols;
}

// Every third column dropped: a partial row.
std::vector<uint32_t> SomeColumns() {
  std::vector<uint32_t> cols;
  for (uint32_t j = 0; j < kN; ++j) {
    if (j % 3 != 1) cols.push_back(j);
  }
  return cols;
}

struct Contribution {
  NodeId sender;
  uint32_t shares;
  uint32_t k_used;  // the sender's pushes this step: scale shares/(k+1)
};

struct Case {
  std::vector<SparseVectorRow> rows;  // kN rows
  NodeId receiver = 0;
  std::vector<Contribution> inbox;  // ascending senders
  bool use_count = false;
};

StepPlan MakePlan(const Case& c, uint32_t n) {
  StepPlan plan;
  plan.Reset(n);
  for (const Contribution& e : c.inbox) {
    plan.inbox[c.receiver].push_back({e.sender, e.shares});
    plan.k_used[e.sender] = e.k_used;
    if (e.sender != c.receiver) ++plan.senders[c.receiver];
  }
  return plan;
}

struct Folded {
  SparseVectorRow row;
  FoldOutcome out;
};

// Folds the case's inbox in a state of `n` >= kN rows (rows past kN are
// empty and outside the inbox).
Folded SparseFold(const Case& c, uint32_t n, double threshold) {
  std::vector<SparseVectorRow> state = c.rows;
  state.resize(n);
  const StepPlan plan = MakePlan(c, n);
  const std::vector<uint8_t> stopped(n, 0);
  SparseVectorGossipPolicy::SyncFold fold(state, c.use_count, kSentinel);
  fold.BeginStep(plan, stopped, state);
  Folded f;
  f.out = fold.Fold(c.receiver, plan, state, f.row, threshold);
  return f;
}

// The dense reference fold, on the case's rows densified over kN columns.
Folded DenseFold(const Case& c) {
  std::vector<DenseGossipData> state(kN);
  for (uint32_t i = 0; i < kN; ++i) {
    DenseGossipData& d = state[i];
    d.y.assign(kN, 0.0);
    d.g.assign(kN, 0.0);
    if (c.use_count) d.c.assign(kN, 0.0);
    const SparseVectorRow& row = c.rows[i];
    for (size_t k = 0; k < row.cols.size(); ++k) {
      d.y[row.cols[k]] = row.y[k];
      d.g[row.cols[k]] = row.g[k];
      if (c.use_count) d.c[row.cols[k]] = row.c[k];
    }
  }
  const StepPlan plan = MakePlan(c, kN);
  DenseVectorGossipPolicy::SyncFold fold(state, c.use_count, kSentinel);
  DenseGossipData next;
  Folded f;
  f.out = fold.Fold(c.receiver, plan, state, next, 0.0);
  for (uint32_t j = 0; j < kN; ++j) {
    if (next.y[j] == 0.0 && next.g[j] == 0.0 &&
        (!c.use_count || next.c[j] == 0.0)) {
      continue;
    }
    f.row.cols.push_back(j);
    f.row.y.push_back(next.y[j]);
    f.row.g.push_back(next.g[j]);
    if (c.use_count) f.row.c.push_back(next.c[j]);
  }
  return f;
}

void ExpectSameRow(const SparseVectorRow& a, const SparseVectorRow& b,
                   const char* what) {
  EXPECT_EQ(a.cols, b.cols) << what;
  EXPECT_EQ(a.nnz(), b.nnz()) << what;
  ExpectSameBits(a.y, b.y, what);
  ExpectSameBits(a.g, b.g, what);
  ExpectSameBits(a.c, b.c, what);
}

// Folds the case through both sparse paths and the dense fold at
// thresholds just below, at and just above the exact change, and with the
// test skipped; everything observable must agree.
void ExpectPathsAgree(const Case& c) {
  const Folded exact = SparseFold(c, kN + 1, 0.0);  // k-way reference
  const Folded dense = DenseFold(c);
  ExpectSameRow(exact.row, dense.row, "k-way vs dense");
  EXPECT_EQ(Bits(exact.out.change), Bits(dense.out.change));
  EXPECT_EQ(exact.out.has_weight, dense.out.has_weight);

  const double change = exact.out.change;
  const double inf = std::numeric_limits<double>::infinity();
  for (double threshold : {std::nextafter(change, -inf), change,
                           std::nextafter(change, inf), 0.0, inf,
                           kSkipConvergenceTest}) {
    SCOPED_TRACE(testing::Message() << "threshold " << threshold);
    const Folded paths[2] = {SparseFold(c, kN, threshold),
                             SparseFold(c, kN + 1, threshold)};
    for (const Folded& f : paths) {
      ExpectSameRow(f.row, exact.row, "fold vs k-way reference");
      EXPECT_EQ(f.out.has_weight, exact.out.has_weight);
      EXPECT_EQ(f.out.change <= threshold, change <= threshold);
      if (change <= threshold) {
        EXPECT_EQ(Bits(f.out.change), Bits(change));
      }
    }
  }
}

Case AllFullCase(bool use_count, uint64_t seed) {
  Rng rng(seed);
  Case c;
  c.use_count = use_count;
  for (uint32_t i = 0; i < kN; ++i) {
    c.rows.push_back(RandomRow(AllColumns(), use_count, rng));
  }
  c.receiver = 9;
  c.inbox = {{2, 1, 1}, {5, 1, 3}, {9, 1, 2}, {17, 1, 1}, {23, 1, 4}};
  return c;
}

TEST(SparseFoldPaths, AllSourcesFull) {
  for (bool use_count : {false, true}) {
    SCOPED_TRACE(use_count ? "count channel" : "no count channel");
    ExpectPathsAgree(AllFullCase(use_count, 11));
  }
}

TEST(SparseFoldPaths, FullSourcesMixedWithPartial) {
  for (bool use_count : {false, true}) {
    SCOPED_TRACE(use_count ? "count channel" : "no count channel");
    Case c = AllFullCase(use_count, 12);
    Rng rng(13);
    c.rows[5] = RandomRow(SomeColumns(), use_count, rng);
    ExpectPathsAgree(c);
    // A partial row of the receiver's own.
    c.rows[9] = RandomRow(SomeColumns(), use_count, rng);
    ExpectPathsAgree(c);
  }
}

TEST(SparseFoldPaths, KeptSelfEntryCarriesBouncedShares) {
  for (bool use_count : {false, true}) {
    SCOPED_TRACE(use_count ? "count channel" : "no count channel");
    Case c = AllFullCase(use_count, 14);
    // Receiver 9 pushed 3 times; two pushes bounced back to it.
    c.inbox = {{2, 1, 1}, {9, 3, 3}, {17, 1, 2}};
    ExpectPathsAgree(c);
  }
}

TEST(SparseFoldPaths, ColumnUnderflowingToZeroIsCompacted) {
  for (bool use_count : {false, true}) {
    SCOPED_TRACE(use_count ? "count channel" : "no count channel");
    Case c = AllFullCase(use_count, 15);
    // Every scale is <= 0.5, and 5e-324 * 0.5 rounds to exact zero.
    c.inbox = {{2, 1, 1}, {9, 1, 1}, {17, 1, 3}};
    for (SparseVectorRow& row : c.rows) {
      row.y[6] = row.g[6] = 5e-324;
      if (use_count) row.c[6] = 5e-324;
    }
    ExpectPathsAgree(c);
    const Folded full = SparseFold(c, kN, 0.0);
    EXPECT_EQ(full.row.nnz(), kN - 1);
    for (uint32_t col : full.row.cols) EXPECT_NE(col, 6u);
  }
}

TEST(SparseFoldPaths, WeightlessColumnsKeepTheirValues) {
  for (bool use_count : {false, true}) {
    SCOPED_TRACE(use_count ? "count channel" : "no count channel");
    Case c = AllFullCase(use_count, 16);
    // Column 3 carries y but no weight anywhere (kept, at the sentinel
    // in eq. (7)); column 4 is stored as explicit zeros (dropped).
    for (SparseVectorRow& row : c.rows) {
      row.g[3] = 0.0;
      row.y[4] = row.g[4] = 0.0;
      if (use_count) row.c[4] = 0.0;
    }
    ExpectPathsAgree(c);
    EXPECT_EQ(SparseFold(c, kN, 0.0).row.nnz(), kN - 1);
  }
}

TEST(SparseFoldPaths, NoWeightAnywhere) {
  Case c = AllFullCase(/*use_count=*/true, 17);
  for (SparseVectorRow& row : c.rows) row.g.assign(kN, 0.0);
  ExpectPathsAgree(c);
  EXPECT_FALSE(SparseFold(c, kN, 0.0).out.has_weight);
}

TEST(SparseFoldPaths, ConvergedReceiverSkipsTheTest) {
  // The executor passes kSkipConvergenceTest for a node that already
  // announced: its change is discarded, so the full-row path returns
  // before walking eq. (7), while the merged row stays exact.
  const Case c = AllFullCase(/*use_count=*/true, 18);
  const Folded full = SparseFold(c, kN, kSkipConvergenceTest);
  const Folded kway = SparseFold(c, kN + 1, kSkipConvergenceTest);
  ExpectSameRow(full.row, kway.row, "skipped test");
  EXPECT_EQ(full.out.has_weight, kway.out.has_weight);
  EXPECT_GT(full.out.change, kSkipConvergenceTest);
  EXPECT_LT(full.out.change, kway.out.change);
}

TEST(SparseFoldPaths, ReleasesRowsOnTheirLastRead) {
  Case c = AllFullCase(/*use_count=*/false, 19);
  std::vector<SparseVectorRow> state = c.rows;
  const StepPlan plan = MakePlan(c, kN);
  SparseVectorGossipPolicy::SyncFold fold(state, false, kSentinel);
  fold.BeginStep(plan, std::vector<uint8_t>(kN, 0), state);
  SparseVectorRow next;
  fold.Fold(c.receiver, plan, state, next, 0.0);
  for (const Contribution& e : c.inbox) {
    EXPECT_EQ(state[e.sender].nnz(), 0u) << "sender " << e.sender;
  }
  EXPECT_EQ(state[0].nnz(), kN);
}

}  // namespace
}  // namespace dgt
