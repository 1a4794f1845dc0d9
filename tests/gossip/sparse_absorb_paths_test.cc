// SparseVectorGossipPolicy::Split and Absorb (the event-driven engine's
// half of the sparse policy) have two paths, chosen by the rows'
// structure: a full-row path when the rows hold columns 0..m-1 (Absorb:
// both rows, of equal length), which works by index and in place, and the
// 2-way sorted-column merge otherwise. These tests check the paths
// against each other and against a reference merge, bit for bit.
//
// Every row is run twice: as given, and with one extra column appended
// past its end. The padded row is no longer full, so it always takes the
// 2-way merge; with the extra column stripped again, the result must equal
// the unpadded one. The reference is the merge's contract written out:
// per column 0.0, += resident, += share * scale, and columns that come out
// exact zero on every channel dropped.

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "gossip/gossip_state.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

using Policy = SparseVectorGossipPolicy;

constexpr uint32_t kM = 48;
// The padding column: past the end of every row here.
constexpr uint32_t kExtra = 1000;

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

void ExpectSameRow(const SparseVectorRow& a, const SparseVectorRow& b,
                   const char* what) {
  EXPECT_EQ(a.cols, b.cols) << what;
  ExpectSameBits(a.y, b.y, what);
  ExpectSameBits(a.g, b.g, what);
  ExpectSameBits(a.c, b.c, what);
}

// A full row over columns 0..m-1 with random channels.
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

// Every third column dropped: a partial row.
SparseVectorRow PartialRow(bool use_count, Rng& rng) {
  SparseVectorRow full = FullRow(kM, use_count, rng);
  SparseVectorRow row;
  for (uint32_t j = 0; j < kM; ++j) {
    if (j % 3 == 1) continue;
    row.cols.push_back(j);
    row.y.push_back(full.y[j]);
    row.g.push_back(full.g[j]);
    if (use_count) row.c.push_back(full.c[j]);
  }
  return row;
}

SparseVectorRow ReferenceMerge(const SparseVectorRow& v,
                               const SparseVectorRow& row, double scale) {
  const bool use_count = !v.c.empty() || !row.c.empty();
  const uint32_t kEnd = std::numeric_limits<uint32_t>::max();
  SparseVectorRow out;
  size_t a = 0, b = 0;
  while (a < v.nnz() || b < row.nnz()) {
    const uint32_t ca = a < v.nnz() ? v.cols[a] : kEnd;
    const uint32_t cb = b < row.nnz() ? row.cols[b] : kEnd;
    const uint32_t j = ca < cb ? ca : cb;
    double y = 0.0, g = 0.0, c = 0.0;
    if (ca == j) {
      y += v.y[a];
      g += v.g[a];
      if (!v.c.empty()) c += v.c[a];
      ++a;
    }
    if (cb == j) {
      y += row.y[b] * scale;
      g += row.g[b] * scale;
      if (!row.c.empty()) c += row.c[b] * scale;
      ++b;
    }
    if (y == 0.0 && g == 0.0 && c == 0.0) continue;
    out.cols.push_back(j);
    out.y.push_back(y);
    out.g.push_back(g);
    if (use_count) out.c.push_back(c);
  }
  return out;
}

// `row` with the padding column appended (ones on every channel, so it
// never merges away).
SparseVectorRow Padded(SparseVectorRow row, bool use_count) {
  row.cols.push_back(kExtra);
  row.y.push_back(1.0);
  row.g.push_back(1.0);
  if (use_count) row.c.push_back(1.0);
  return row;
}

// Strips the padding column again.
SparseVectorRow Unpadded(SparseVectorRow row) {
  EXPECT_FALSE(row.cols.empty());
  if (row.cols.empty()) return row;
  EXPECT_EQ(row.cols.back(), kExtra);
  row.cols.pop_back();
  row.y.pop_back();
  row.g.pop_back();
  if (!row.c.empty()) row.c.pop_back();
  return row;
}

Policy::Share MakeShare(const SparseVectorRow& row, double scale) {
  return Policy::Share{std::make_shared<const SparseVectorRow>(row), scale};
}

// Absorbs `src * scale` into `resident` on both paths and against the
// reference; returns the absorbed row.
SparseVectorRow ExpectAbsorbPathsAgree(const SparseVectorRow& resident,
                                       const SparseVectorRow& src,
                                       double scale, bool use_count) {
  SparseVectorRow direct = resident;
  Policy::Absorb(direct, MakeShare(src, scale));
  ExpectSameRow(direct, ReferenceMerge(resident, src, scale),
                "absorb vs reference");
  SparseVectorRow merged = Padded(resident, use_count);
  Policy::Absorb(merged, MakeShare(Padded(src, use_count), scale));
  ExpectSameRow(Unpadded(merged), direct, "absorb vs forced 2-way merge");
  return direct;
}

// Splits `row` k + 1 ways on both paths and against the reference, then
// absorbs the share straight back (a lost share); returns the kept share.
SparseVectorRow ExpectSplitPathsAgree(const SparseVectorRow& row, uint32_t k,
                                      bool use_count) {
  SparseVectorRow kept = row;
  const Policy::Share share = Policy::Split(kept, k);
  EXPECT_EQ(Bits(share.scale), Bits(1.0 / (static_cast<double>(k) + 1.0)));
  ExpectSameRow(*share.row, row, "snapshot");
  ExpectSameRow(kept, ReferenceMerge(SparseVectorRow(), row, share.scale),
                "split vs reference");
  SparseVectorRow padded = Padded(row, use_count);
  Policy::Split(padded, k);
  ExpectSameRow(Unpadded(padded), kept, "split vs forced 2-way merge");

  SparseVectorRow lost = kept;
  Policy::Absorb(lost, share);
  ExpectSameRow(lost, ReferenceMerge(kept, row, share.scale),
                "lost share vs reference");
  ExpectAbsorbPathsAgree(kept, row, share.scale, use_count);
  return kept;
}

const double kScales[] = {0.5, 1.0 / 3.0, 0.2, 2.0 / 3.0, 1.0};

TEST(SparseAbsorbPaths, BothRowsFull) {
  for (bool use_count : {false, true}) {
    SCOPED_TRACE(use_count ? "count channel" : "no count channel");
    Rng rng(31);
    for (double scale : kScales) {
      const SparseVectorRow resident = FullRow(kM, use_count, rng);
      const SparseVectorRow src = FullRow(kM, use_count, rng);
      ExpectAbsorbPathsAgree(resident, src, scale, use_count);
      // The full-row path merges in place: the resident storage stays.
      SparseVectorRow v = resident;
      const double* y = v.y.data();
      Policy::Absorb(v, MakeShare(src, scale));
      EXPECT_EQ(v.y.data(), y);
    }
  }
}

TEST(SparseAbsorbPaths, FullResidentPartialShareAndTheReverse) {
  for (bool use_count : {false, true}) {
    SCOPED_TRACE(use_count ? "count channel" : "no count channel");
    Rng rng(32);
    for (double scale : kScales) {
      const SparseVectorRow full = FullRow(kM, use_count, rng);
      const SparseVectorRow partial = PartialRow(use_count, rng);
      ExpectAbsorbPathsAgree(full, partial, scale, use_count);
      ExpectAbsorbPathsAgree(partial, full, scale, use_count);
    }
  }
}

TEST(SparseAbsorbPaths, FullRowsOfUnequalLength) {
  for (bool use_count : {false, true}) {
    SCOPED_TRACE(use_count ? "count channel" : "no count channel");
    Rng rng(33);
    const SparseVectorRow longer = FullRow(kM, use_count, rng);
    const SparseVectorRow shorter = FullRow(kM - 7, use_count, rng);
    ExpectAbsorbPathsAgree(longer, shorter, 0.5, use_count);
    ExpectAbsorbPathsAgree(shorter, longer, 0.5, use_count);
  }
}

TEST(SparseAbsorbPaths, FullRowsSplitAcrossPushCounts) {
  for (bool use_count : {false, true}) {
    SCOPED_TRACE(use_count ? "count channel" : "no count channel");
    Rng rng(34);
    for (uint32_t k : {0u, 1u, 2u, 4u}) {
      ExpectSplitPathsAgree(FullRow(kM, use_count, rng), k, use_count);
      ExpectSplitPathsAgree(PartialRow(use_count, rng), k, use_count);
    }
  }
}

TEST(SparseAbsorbPaths, UnderflowColumnIsCompacted) {
  for (bool use_count : {false, true}) {
    SCOPED_TRACE(use_count ? "count channel" : "no count channel");
    Rng rng(35);
    // 5e-324 * 0.5 rounds to exact zero on every channel.
    SparseVectorRow row = FullRow(kM, use_count, rng);
    row.y[6] = row.g[6] = 5e-324;
    if (use_count) row.c[6] = 5e-324;
    const SparseVectorRow kept = ExpectSplitPathsAgree(row, 1, use_count);
    EXPECT_EQ(kept.nnz(), kM - 1);
    for (uint32_t col : kept.cols) EXPECT_NE(col, 6u);

    // An explicit-zero resident column meets an underflowing share.
    SparseVectorRow resident = FullRow(kM, use_count, rng);
    resident.y[6] = resident.g[6] = 0.0;
    if (use_count) resident.c[6] = 0.0;
    const SparseVectorRow absorbed =
        ExpectAbsorbPathsAgree(resident, row, 0.5, use_count);
    EXPECT_EQ(absorbed.nnz(), kM - 1);
    for (uint32_t col : absorbed.cols) EXPECT_NE(col, 6u);
  }
}

TEST(SparseAbsorbPaths, ExplicitAndNegativeZeros) {
  for (bool use_count : {false, true}) {
    SCOPED_TRACE(use_count ? "count channel" : "no count channel");
    Rng rng(36);
    SparseVectorRow resident = FullRow(kM, use_count, rng);
    SparseVectorRow src = FullRow(kM, use_count, rng);
    // Column 2: -0.0 values under a live weight on both sides (the sum
    // is +0.0 only through the leading 0.0). Column 3: explicit +0.0
    // values. Column 4: -0.0 on every channel on both sides (dropped).
    // Column 5: no weight, values kept.
    for (SparseVectorRow* r : {&resident, &src}) {
      r->y[2] = -0.0;
      r->y[3] = 0.0;
      r->y[4] = r->g[4] = -0.0;
      r->g[5] = 0.0;
      if (use_count) {
        r->c[2] = -0.0;
        r->c[3] = 0.0;
        r->c[4] = -0.0;
      }
    }
    const SparseVectorRow absorbed =
        ExpectAbsorbPathsAgree(resident, src, 0.5, use_count);
    ASSERT_EQ(absorbed.nnz(), kM - 1);
    EXPECT_EQ(Bits(absorbed.y[2]), Bits(0.0));
    EXPECT_EQ(absorbed.cols[4], 5u);

    const SparseVectorRow kept = ExpectSplitPathsAgree(src, 2, use_count);
    ASSERT_EQ(kept.nnz(), kM - 1);
    EXPECT_EQ(Bits(kept.y[2]), Bits(0.0));
  }
}

TEST(SparseAbsorbPaths, EmptyRows) {
  for (bool use_count : {false, true}) {
    SCOPED_TRACE(use_count ? "count channel" : "no count channel");
    Rng rng(37);
    const SparseVectorRow empty;
    const SparseVectorRow full = FullRow(kM, use_count, rng);
    ExpectAbsorbPathsAgree(empty, full, 0.5, use_count);
    ExpectAbsorbPathsAgree(full, empty, 0.5, use_count);
    ExpectAbsorbPathsAgree(empty, empty, 0.5, use_count);
    const SparseVectorRow kept = ExpectSplitPathsAgree(empty, 3, use_count);
    EXPECT_EQ(kept.nnz(), 0u);
  }
}

}  // namespace
}  // namespace dgt
