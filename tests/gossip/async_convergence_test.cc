// The event-driven engine's convergence test, Policy::Change, compares a
// node's current value against the state its previous firing sent,
// computing each ratio on the fly and stopping once the L1 sum exceeds the
// threshold. These tests check it, for every policy and row shape, against
// a test-local copy of the ratio snapshots it replaced: take both
// snapshots, then walk them in full.
//
// At every threshold tried (just below, at and just above the exact
// distance, 0, +inf, and every partial sum of the reference walk) the
// `<= threshold` decision must match the reference, and at or below the
// threshold the returned value must be the reference's, bit for bit.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gossip/gossip_state.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

constexpr uint32_t kM = 48;
constexpr double kInf = std::numeric_limits<double>::infinity();
const double kSentinels[] = {10.0, 0.25};

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// --- The replaced snapshots, as reference ------------------------------

// The full L1 distance and the running sum after each term.
struct RefWalk {
  double l1 = 0.0;
  std::vector<double> partial_sums;
  void Add(double term) {
    l1 += term;
    partial_sums.push_back(l1);
  }
};

std::vector<double> RefRatios(const std::vector<double>& num,
                              const std::vector<double>& g, double sentinel) {
  std::vector<double> r(num.size());
  for (size_t j = 0; j < num.size(); ++j) {
    r[j] = g[j] != 0.0 ? num[j] / g[j] : sentinel;
  }
  return r;
}

RefWalk RefScalar(const ScalarGossipPolicy::Value& a,
                  const ScalarGossipPolicy::Value& b, double sentinel) {
  const double ra = a.g != 0.0 ? a.y / a.g : sentinel;
  const double rb = b.g != 0.0 ? b.y / b.g : sentinel;
  RefWalk w;
  w.Add(std::fabs(ra - rb));
  return w;
}

RefWalk RefDense(const DenseGossipData& a, const DenseGossipData& b,
                 double sentinel) {
  const std::vector<double> ar = RefRatios(a.y, a.g, sentinel);
  const std::vector<double> br = RefRatios(b.y, b.g, sentinel);
  std::vector<double> arc, brc;
  if (!a.c.empty()) arc = RefRatios(a.c, a.g, sentinel);
  if (!b.c.empty()) brc = RefRatios(b.c, b.g, sentinel);
  RefWalk w;
  for (size_t j = 0; j < ar.size(); ++j) w.Add(std::fabs(br[j] - ar[j]));
  for (size_t j = 0; j < arc.size() && j < brc.size(); ++j) {
    w.Add(std::fabs(brc[j] - arc[j]));
  }
  return w;
}

RefWalk RefSparse(const SparseVectorRow& a, const SparseVectorRow& b,
                  double sentinel) {
  const std::vector<double> ar = RefRatios(a.y, a.g, sentinel);
  const std::vector<double> br = RefRatios(b.y, b.g, sentinel);
  std::vector<double> arc, brc;
  if (!a.c.empty()) arc = RefRatios(a.c, a.g, sentinel);
  if (!b.c.empty()) brc = RefRatios(b.c, b.g, sentinel);
  const bool use_count = !arc.empty() || !brc.empty();
  const uint32_t kEnd = std::numeric_limits<uint32_t>::max();
  RefWalk w;
  size_t ia = 0, ib = 0;
  while (ia < a.cols.size() || ib < b.cols.size()) {
    const uint32_t ca = ia < a.cols.size() ? a.cols[ia] : kEnd;
    const uint32_t cb = ib < b.cols.size() ? b.cols[ib] : kEnd;
    double ra = sentinel, rb = sentinel;
    double rca = sentinel, rcb = sentinel;
    if (ca <= cb) {
      ra = ar[ia];
      if (!arc.empty()) rca = arc[ia];
    }
    if (cb <= ca) {
      rb = br[ib];
      if (!brc.empty()) rcb = brc[ib];
    }
    w.Add(std::fabs(rb - ra));
    if (use_count) w.Add(std::fabs(rcb - rca));
    if (ca <= cb) ++ia;
    if (cb <= ca) ++ib;
  }
  return w;
}

RefWalk Ref(const ScalarGossipPolicy::Value& a,
            const ScalarGossipPolicy::Value& b, double sentinel) {
  return RefScalar(a, b, sentinel);
}
RefWalk Ref(const DenseGossipData& a, const DenseGossipData& b,
            double sentinel) {
  return RefDense(a, b, sentinel);
}
RefWalk Ref(const SparseVectorRow& a, const SparseVectorRow& b,
            double sentinel) {
  return RefSparse(a, b, sentinel);
}

// --- The check ---------------------------------------------------------

// Change(prev -> cur) against the reference at every threshold of
// interest, for each sentinel; `from` is what the previous firing sent.
template <typename Policy>
void ExpectMatchesReference(const typename Policy::Share& from,
                            const typename Policy::Value& prev,
                            const typename Policy::Value& cur,
                            const std::string& what) {
  for (double sentinel : kSentinels) {
    const RefWalk ref = Ref(prev, cur, sentinel);
    const double d = ref.l1;
    std::vector<double> thresholds = {0.0, kInf, d};
    if (d > 0.0) thresholds.push_back(std::nextafter(d, 0.0));
    if (d < kInf) thresholds.push_back(std::nextafter(d, kInf));
    thresholds.insert(thresholds.end(), ref.partial_sums.begin(),
                      ref.partial_sums.end());
    for (double t : thresholds) {
      const double got = Policy::Change(from, cur, sentinel, t);
      EXPECT_EQ(got <= t, d <= t)
          << what << ": sentinel " << sentinel << ", threshold " << t
          << ", reference " << d << ", got " << got;
      if (d <= t) {
        EXPECT_EQ(Bits(got), Bits(d))
            << what << ": sentinel " << sentinel << ", threshold " << t;
      }
    }
  }
}

template <typename Policy>
void ExpectMatchesReference(const typename Policy::Value& prev,
                            const typename Policy::Value& cur,
                            const std::string& what) {
  ExpectMatchesReference<Policy>(Policy::Whole(prev), prev, cur, what);
}

// --- Row builders ------------------------------------------------------

SparseVectorRow FullRow(uint32_t m, bool use_count, Rng& rng) {
  SparseVectorRow row;
  for (uint32_t j = 0; j < m; ++j) {
    row.cols.push_back(j);
    row.y.push_back(rng.NextDouble(0.0, 2.0));
    row.g.push_back(rng.NextDouble(0.01, 1.0));
    if (use_count) row.c.push_back(rng.NextDouble(0.0, 3.0));
  }
  return row;
}

// The columns of `full` with j % mod == drop removed: a partial row.
SparseVectorRow Thinned(const SparseVectorRow& full, uint32_t mod,
                        uint32_t drop) {
  SparseVectorRow row;
  for (size_t k = 0; k < full.nnz(); ++k) {
    if (full.cols[k] % mod == drop) continue;
    row.cols.push_back(full.cols[k]);
    row.y.push_back(full.y[k]);
    row.g.push_back(full.g[k]);
    if (!full.c.empty()) row.c.push_back(full.c[k]);
  }
  return row;
}

// `row` moved by a relative `eps` per entry: the near-converged case,
// where the walk runs in full. The first columns stay equal, so the
// leading terms are exact zeros.
SparseVectorRow Nudged(SparseVectorRow row, double eps, Rng& rng) {
  for (size_t k = 3; k < row.nnz(); ++k) {
    row.y[k] *= 1.0 + eps * rng.NextDouble(-1.0, 1.0);
    if (!row.c.empty()) row.c[k] *= 1.0 + eps * rng.NextDouble(-1.0, 1.0);
  }
  return row;
}

// Column 4 weightless (at the sentinel), columns 5/6 with -0.0 entries.
SparseVectorRow WithZeros(SparseVectorRow row) {
  if (row.nnz() > 6) {
    row.g[4] = 0.0;
    row.y[5] = -0.0;
    row.g[6] = -0.0;
    if (!row.c.empty()) row.c[5] = -0.0;
  }
  return row;
}

DenseGossipData Dense(const SparseVectorRow& full) {
  return DenseGossipData{full.y, full.g, full.c};
}

// --- Sparse ------------------------------------------------------------

using Sparse = SparseVectorGossipPolicy;

TEST(AsyncConvergenceSparse, FullRowsOfEqualLength) {
  for (bool use_count : {false, true}) {
    SCOPED_TRACE(use_count ? "count channel" : "no count channel");
    Rng rng(41);
    const SparseVectorRow a = FullRow(kM, use_count, rng);
    ExpectMatchesReference<Sparse>(a, FullRow(kM, use_count, rng), "far");
    for (double eps : {1e-3, 1e-9}) {
      ExpectMatchesReference<Sparse>(a, Nudged(a, eps, rng), "near");
    }
    ExpectMatchesReference<Sparse>(a, a, "unchanged");
    ExpectMatchesReference<Sparse>(WithZeros(a), Nudged(a, 1e-6, rng),
                                   "zeros before");
    ExpectMatchesReference<Sparse>(a, WithZeros(Nudged(a, 1e-6, rng)),
                                   "zeros after");
    ExpectMatchesReference<Sparse>(WithZeros(a), WithZeros(a), "zeros both");
  }
}

TEST(AsyncConvergenceSparse, FullRowsOfUnequalLength) {
  for (bool use_count : {false, true}) {
    SCOPED_TRACE(use_count ? "count channel" : "no count channel");
    Rng rng(42);
    const SparseVectorRow longer = FullRow(kM, use_count, rng);
    const SparseVectorRow shorter = Thinned(longer, kM, kM - 1);
    ExpectMatchesReference<Sparse>(longer, shorter, "longer -> shorter");
    ExpectMatchesReference<Sparse>(shorter, longer, "shorter -> longer");
    ExpectMatchesReference<Sparse>(shorter, FullRow(kM, use_count, rng),
                                   "shorter -> other");
  }
}

TEST(AsyncConvergenceSparse, FullAgainstPartialAndTheReverse) {
  for (bool use_count : {false, true}) {
    SCOPED_TRACE(use_count ? "count channel" : "no count channel");
    Rng rng(43);
    const SparseVectorRow full = FullRow(kM, use_count, rng);
    const SparseVectorRow partial = Thinned(Nudged(full, 1e-6, rng), 3, 1);
    ExpectMatchesReference<Sparse>(full, partial, "full -> partial");
    ExpectMatchesReference<Sparse>(partial, full, "partial -> full");
    ExpectMatchesReference<Sparse>(WithZeros(full), partial,
                                   "full with zeros -> partial");
    // Column 0 missing: a row that is not full although it ends at m - 1.
    const SparseVectorRow no_first = Thinned(full, kM, 0);
    ExpectMatchesReference<Sparse>(full, no_first, "full -> no column 0");
    ExpectMatchesReference<Sparse>(no_first, full, "no column 0 -> full");
  }
}

TEST(AsyncConvergenceSparse, PartialRowsWithOneSidedColumns) {
  for (bool use_count : {false, true}) {
    SCOPED_TRACE(use_count ? "count channel" : "no count channel");
    Rng rng(44);
    const SparseVectorRow full = FullRow(kM, use_count, rng);
    const SparseVectorRow a = Thinned(full, 3, 1);
    const SparseVectorRow b = Thinned(Nudged(full, 1e-4, rng), 4, 2);
    ExpectMatchesReference<Sparse>(a, b, "a -> b");
    ExpectMatchesReference<Sparse>(b, a, "b -> a");
    ExpectMatchesReference<Sparse>(WithZeros(a), WithZeros(b), "zeros");
    // Disjoint column sets: every column one-sided.
    ExpectMatchesReference<Sparse>(Thinned(full, 2, 0), Thinned(full, 2, 1),
                                   "disjoint");
  }
}

TEST(AsyncConvergenceSparse, EmptyRows) {
  for (bool use_count : {false, true}) {
    SCOPED_TRACE(use_count ? "count channel" : "no count channel");
    Rng rng(45);
    const SparseVectorRow full = FullRow(kM, use_count, rng);
    ExpectMatchesReference<Sparse>(SparseVectorRow(), SparseVectorRow(),
                                   "empty -> empty");
    ExpectMatchesReference<Sparse>(SparseVectorRow(), full, "empty -> full");
    ExpectMatchesReference<Sparse>(full, SparseVectorRow(), "full -> empty");
    ExpectMatchesReference<Sparse>(SparseVectorRow(), Thinned(full, 3, 0),
                                   "empty -> partial");
  }
}

TEST(AsyncConvergenceSparse, CountChannelOnOneSideOnly) {
  Rng rng(46);
  const SparseVectorRow with = FullRow(kM, true, rng);
  SparseVectorRow without = Nudged(with, 1e-5, rng);
  without.c.clear();
  ExpectMatchesReference<Sparse>(with, without, "count -> none");
  ExpectMatchesReference<Sparse>(without, with, "none -> count");
}

TEST(AsyncConvergenceSparse, ComparesAgainstWhatSplitSent) {
  for (bool use_count : {false, true}) {
    SCOPED_TRACE(use_count ? "count channel" : "no count channel");
    Rng rng(47);
    const SparseVectorRow prev = FullRow(kM, use_count, rng);
    SparseVectorRow v = prev;
    const Sparse::Share sent = Sparse::Split(v, 2);
    Sparse::Absorb(v, Sparse::Share{
                          std::make_shared<const SparseVectorRow>(
                              FullRow(kM, use_count, rng)),
                          0.5});
    ExpectMatchesReference<Sparse>(sent, prev, v, "full row");

    const SparseVectorRow partial = Thinned(prev, 3, 2);
    SparseVectorRow w = partial;
    const Sparse::Share sent_partial = Sparse::Split(w, 1);
    ExpectMatchesReference<Sparse>(sent_partial, partial, w, "partial row");
  }
}

// --- Dense -------------------------------------------------------------

using DensePolicy = DenseVectorGossipPolicy;

TEST(AsyncConvergenceDense, AllShapes) {
  for (bool use_count : {false, true}) {
    SCOPED_TRACE(use_count ? "count channel" : "no count channel");
    Rng rng(51);
    const SparseVectorRow a = FullRow(kM, use_count, rng);
    ExpectMatchesReference<DensePolicy>(Dense(a),
                                        Dense(FullRow(kM, use_count, rng)),
                                        "far");
    for (double eps : {1e-3, 1e-9}) {
      ExpectMatchesReference<DensePolicy>(Dense(a), Dense(Nudged(a, eps, rng)),
                                          "near");
    }
    ExpectMatchesReference<DensePolicy>(Dense(a), Dense(a), "unchanged");
    ExpectMatchesReference<DensePolicy>(Dense(WithZeros(a)),
                                        Dense(Nudged(a, 1e-6, rng)),
                                        "zeros before");
    ExpectMatchesReference<DensePolicy>(
        Dense(a), Dense(WithZeros(Nudged(a, 1e-6, rng))), "zeros after");
    ExpectMatchesReference<DensePolicy>(DenseGossipData(), DenseGossipData(),
                                        "empty");

    DenseGossipData v = Dense(a);
    const DensePolicy::Share sent = DensePolicy::Split(v, 3);
    ExpectMatchesReference<DensePolicy>(sent, Dense(a), v, "split");
  }
}

// --- Scalar ------------------------------------------------------------

using Scalar = ScalarGossipPolicy;

TEST(AsyncConvergenceScalar, AllShapes) {
  const Scalar::Value values[] = {
      {0.7, 0.4, 0.0},  {0.7, 0.4, 2.5},       {0.7000001, 0.4, 2.5},
      {1.2, 0.0, 1.0},  {-0.0, 0.3, -0.0},     {0.0, -0.0, 0.0},
      {0.0, 0.0, 0.0},  {3.0, 1e-300, 1.0},
  };
  for (const Scalar::Value& a : values) {
    for (const Scalar::Value& b : values) {
      ExpectMatchesReference<Scalar>(a, b, "pair");
    }
  }
  Scalar::Value v{0.9, 0.6, 1.5};
  const Scalar::Share sent = Scalar::Split(v, 2);
  Scalar::Absorb(v, Scalar::Share{{0.2, 0.1, 0.4}, 0.5});
  ExpectMatchesReference<Scalar>(sent, Scalar::Value{0.9, 0.6, 1.5}, v,
                                 "split");
}

}  // namespace
}  // namespace dgt
