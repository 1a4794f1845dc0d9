#include "gossip/gossip_state.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

namespace dgt {

namespace {

// One contribution's read position in the sparse fold's k-way merge.
struct MergeCursor {
  const SparseVectorRow* src;
  size_t pos;
  double scale;
  bool is_self;
};

constexpr uint32_t kNoColumn = std::numeric_limits<uint32_t>::max();

// A NaN or infinite entry can never settle, so a run fed one would spin
// to max_steps; every policy's Validate rejects it up front.
bool IsFiniteValue(double v) { return std::isfinite(v); }
bool IsWeight(double w) { return std::isfinite(w) && w >= 0.0; }

Status BadValues() { return Status::InvalidArgument("values must be finite"); }
Status BadWeights() {
  return Status::InvalidArgument("gossip weights must be finite and >= 0");
}

// Validates parallel y/g/c channels (c may be empty).
Status CheckChannels(const std::vector<double>& y, const std::vector<double>& g,
                     const std::vector<double>& c) {
  if (!std::all_of(y.begin(), y.end(), IsFiniteValue) ||
      !std::all_of(c.begin(), c.end(), IsFiniteValue)) {
    return BadValues();
  }
  if (!std::all_of(g.begin(), g.end(), IsWeight)) return BadWeights();
  return Status::OK();
}

// One column's ratio num / g, or `sentinel` where g == 0.
double ColumnRatio(double num, double g, double sentinel) {
  return g != 0.0 ? num / g : sentinel;
}

}  // namespace

std::vector<double> ColumnRatios(const std::vector<double>& num,
                                 const std::vector<double>& g,
                                 double sentinel) {
  std::vector<double> r(num.size());
  for (size_t j = 0; j < num.size(); ++j) {
    r[j] = ColumnRatio(num[j], g[j], sentinel);
  }
  return r;
}

Status ValidateXi(double xi) {
  if (!std::isfinite(xi) || xi <= 0.0) {
    return Status::InvalidArgument("xi must be positive and finite");
  }
  return Status::OK();
}

// --- Scalar ------------------------------------------------------------

Status ScalarGossipPolicy::Validate(const Value& v, uint32_t /*n*/,
                                    bool /*use_count*/) {
  if (!IsFiniteValue(v.y) || !IsFiniteValue(v.c)) return BadValues();
  if (!IsWeight(v.g)) return BadWeights();
  return Status::OK();
}

FoldOutcome ScalarGossipPolicy::SyncFold::Fold(NodeId i, const StepPlan& plan,
                                               const std::vector<Value>& state,
                                               Value& next,
                                               double /*threshold*/) const {
  double acc_y = 0.0, acc_g = 0.0, acc_c = 0.0;
  for (const PlanEntry& e : plan.inbox[i]) {
    const double denom = static_cast<double>(plan.k_used[e.sender]) + 1.0;
    const Value& from = state[e.sender];
    const double sy = from.y / denom;
    const double sg = from.g / denom;
    const double sc = use_count_ ? from.c / denom : 0.0;
    double ty = sy, tg = sg, tc = sc;
    for (uint32_t s = 1; s < e.shares; ++s) {
      ty += sy;
      tg += sg;
      tc += sc;
    }
    acc_y += ty;
    acc_g += tg;
    acc_c += tc;
  }
  const Value& old = state[i];
  FoldOutcome out;
  out.has_weight = acc_g != 0.0;
  double r = acc_g != 0.0 ? acc_y / acc_g : sentinel_;
  out.change = std::fabs(r - Estimate(old, sentinel_));
  if (use_count_) {
    double rc = acc_g != 0.0 ? acc_c / acc_g : sentinel_;
    double prev_c = old.g != 0.0 ? old.c / old.g : sentinel_;
    out.change += std::fabs(rc - prev_c);
  }
  next = {acc_y, acc_g, acc_c};
  return out;
}

// --- Dense vector ------------------------------------------------------

Status DenseVectorGossipPolicy::Validate(const Value& v, uint32_t n,
                                         bool use_count) {
  if (v.y.size() != n || v.g.size() != n ||
      v.c.size() != (use_count ? n : 0)) {
    return Status::InvalidArgument(
        "dense rows must have num_nodes columns (count channel iff used)");
  }
  return CheckChannels(v.y, v.g, v.c);
}

FoldOutcome DenseVectorGossipPolicy::SyncFold::Fold(
    NodeId i, const StepPlan& plan, const std::vector<Value>& state,
    Value& next, double /*threshold*/) const {
  const size_t n = state[i].y.size();
  next.y.assign(n, 0.0);
  next.g.assign(n, 0.0);
  if (use_count_) next.c.assign(n, 0.0);
  for (const PlanEntry& e : plan.inbox[i]) {
    const double inv = 1.0 / (static_cast<double>(plan.k_used[e.sender]) + 1.0);
    const double scale = static_cast<double>(e.shares) * inv;
    const Value& from = state[e.sender];
    for (size_t j = 0; j < n; ++j) {
      next.y[j] += from.y[j] * scale;
      next.g[j] += from.g[j] * scale;
    }
    if (use_count_) {
      for (size_t j = 0; j < n; ++j) next.c[j] += from.c[j] * scale;
    }
  }

  const Value& old = state[i];
  FoldOutcome out;
  for (size_t j = 0; j < n; ++j) {
    if (next.g[j] != 0.0) out.has_weight = true;
    double r = next.g[j] != 0.0 ? next.y[j] / next.g[j] : sentinel_;
    double prev = old.g[j] != 0.0 ? old.y[j] / old.g[j] : sentinel_;
    out.change += std::fabs(r - prev);
    if (use_count_) {
      double rc = next.g[j] != 0.0 ? next.c[j] / next.g[j] : sentinel_;
      double prev_c = old.g[j] != 0.0 ? old.c[j] / old.g[j] : sentinel_;
      out.change += std::fabs(rc - prev_c);
    }
  }
  return out;
}

DenseVectorGossipPolicy::Share DenseVectorGossipPolicy::Split(Value& v,
                                                              uint32_t k) {
  const double inv = 1.0 / (static_cast<double>(k) + 1.0);
  auto snap = std::make_shared<DenseGossipData>(std::move(v));
  v.y.resize(snap->y.size());
  v.g.resize(snap->g.size());
  v.c.resize(snap->c.size());
  for (size_t j = 0; j < snap->y.size(); ++j) v.y[j] = snap->y[j] * inv;
  for (size_t j = 0; j < snap->g.size(); ++j) v.g[j] = snap->g[j] * inv;
  for (size_t j = 0; j < snap->c.size(); ++j) v.c[j] = snap->c[j] * inv;
  return Share{std::move(snap), inv};
}

void DenseVectorGossipPolicy::Absorb(Value& v, const Share& s) {
  const DenseGossipData& d = *s.data;
  for (size_t j = 0; j < d.y.size(); ++j) v.y[j] += d.y[j] * s.scale;
  for (size_t j = 0; j < d.g.size(); ++j) v.g[j] += d.g[j] * s.scale;
  for (size_t j = 0; j < d.c.size(); ++j) v.c[j] += d.c[j] * s.scale;
}

bool DenseVectorGossipPolicy::HasWeight(const Value& v) {
  return std::any_of(v.g.begin(), v.g.end(), [](double g) { return g != 0.0; });
}

DenseVectorGossipPolicy::Share DenseVectorGossipPolicy::Whole(const Value& v) {
  return Share{std::make_shared<const DenseGossipData>(v), 1.0};
}

double DenseVectorGossipPolicy::Change(const Share& from, const Value& v,
                                       double sentinel, double threshold) {
  const DenseGossipData& a = *from.data;
  assert(a.y.size() == v.y.size());
  // Every term is >= 0: once the sum exceeds the threshold the comparison
  // is decided.
  double l1 = 0.0;
  for (size_t j = 0; j < v.y.size() && !(l1 > threshold); ++j) {
    l1 += std::fabs(ColumnRatio(v.y[j], v.g[j], sentinel) -
                    ColumnRatio(a.y[j], a.g[j], sentinel));
  }
  const size_t nc = std::min(a.c.size(), v.c.size());
  for (size_t j = 0; j < nc && !(l1 > threshold); ++j) {
    l1 += std::fabs(ColumnRatio(v.c[j], v.g[j], sentinel) -
                    ColumnRatio(a.c[j], a.g[j], sentinel));
  }
  return l1;
}

// --- CSR sparse row ----------------------------------------------------

Status SparseVectorGossipPolicy::Validate(const Value& v, uint32_t n,
                                          bool use_count) {
  if (v.y.size() != v.cols.size() || v.g.size() != v.cols.size() ||
      v.c.size() != (use_count ? v.cols.size() : 0)) {
    return Status::InvalidArgument(
        "value arrays must parallel cols (count channel iff used)");
  }
  for (size_t k = 0; k < v.cols.size(); ++k) {
    if (v.cols[k] >= n) return Status::InvalidArgument("column out of range");
    if (k > 0 && v.cols[k] <= v.cols[k - 1]) {
      return Status::InvalidArgument("columns must be strictly increasing");
    }
  }
  return CheckChannels(v.y, v.g, v.c);
}

namespace {

// True when `row.cols` is exactly 0..nnz-1: columns are strictly
// increasing, so the last one equals nnz - 1 only then. Two such rows of
// equal length are index-aligned.
bool IsFullRow(const SparseVectorRow& row) {
  return !row.cols.empty() && row.cols.back() == row.cols.size() - 1;
}

// Drops the columns that are exact zero on every channel, as the sorted
// merges never emit them, keeping the rest in order.
void DropZeroColumns(SparseVectorRow& row) {
  const bool use_count = !row.c.empty();
  size_t kept = 0;
  for (size_t k = 0; k < row.nnz(); ++k) {
    if (row.y[k] == 0.0 && row.g[k] == 0.0 &&
        (!use_count || row.c[k] == 0.0)) {
      continue;
    }
    row.cols[kept] = row.cols[k];
    row.y[kept] = row.y[k];
    row.g[kept] = row.g[k];
    if (use_count) row.c[kept] = row.c[k];
    ++kept;
  }
  row.cols.resize(kept);
  row.y.resize(kept);
  row.g.resize(kept);
  if (use_count) row.c.resize(kept);
}

// v + scale * row as a 2-way sorted-column merge (entries that cancel to
// exact zero on every channel are dropped, keeping rows minimal).
SparseVectorRow MergeScaled(const SparseVectorRow& v,
                            const SparseVectorRow& row, double scale) {
  const bool use_count = !v.c.empty() || !row.c.empty();
  SparseVectorRow out;
  out.cols.reserve(v.cols.size() + row.cols.size());
  out.y.reserve(v.cols.size() + row.cols.size());
  out.g.reserve(v.cols.size() + row.cols.size());
  if (use_count) out.c.reserve(v.cols.size() + row.cols.size());
  size_t ia = 0, ib = 0;
  while (ia < v.cols.size() || ib < row.cols.size()) {
    uint32_t ca = ia < v.cols.size() ? v.cols[ia] : UINT32_MAX;
    uint32_t cb = ib < row.cols.size() ? row.cols[ib] : UINT32_MAX;
    uint32_t j = ca < cb ? ca : cb;
    double ay = 0.0, ag = 0.0, ac = 0.0;
    if (ca == j) {
      ay += v.y[ia];
      ag += v.g[ia];
      if (!v.c.empty()) ac += v.c[ia];
      ++ia;
    }
    if (cb == j) {
      ay += row.y[ib] * scale;
      ag += row.g[ib] * scale;
      if (!row.c.empty()) ac += row.c[ib] * scale;
      ++ib;
    }
    if (ay != 0.0 || ag != 0.0 || ac != 0.0) {
      out.cols.push_back(j);
      out.y.push_back(ay);
      out.g.push_back(ag);
      if (use_count) out.c.push_back(ac);
    }
  }
  return out;
}

}  // namespace

SparseVectorGossipPolicy::Share SparseVectorGossipPolicy::Split(Value& v,
                                                                uint32_t k) {
  const double inv = 1.0 / (static_cast<double>(k) + 1.0);
  auto snap = std::make_shared<const SparseVectorRow>(std::move(v));
  // The kept share: the same immutable snapshot scaled down, materialised
  // as the node's new resident row.
  if (!IsFullRow(*snap)) {
    v = MergeScaled(SparseVectorRow(), *snap, inv);
    return Share{std::move(snap), inv};
  }
  // Full row: by index, 0.0 + product per column, MergeScaled's exact
  // operation sequence against an empty row.
  const size_t m = snap->nnz();
  const bool use_count = !snap->c.empty();
  v.cols = snap->cols;
  v.y.resize(m);
  v.g.resize(m);
  v.c.resize(use_count ? m : 0);
  size_t zero_g = 0;
  for (size_t j = 0; j < m; ++j) {
    v.y[j] = 0.0 + snap->y[j] * inv;
    v.g[j] = 0.0 + snap->g[j] * inv;
    zero_g += v.g[j] == 0.0 ? 1 : 0;
  }
  if (use_count) {
    for (size_t j = 0; j < m; ++j) v.c[j] = 0.0 + snap->c[j] * inv;
  }
  if (zero_g > 0) DropZeroColumns(v);
  return Share{std::move(snap), inv};
}

void SparseVectorGossipPolicy::Absorb(Value& v, const Share& s) {
  const SparseVectorRow& src = *s.row;
  if (v.nnz() != src.nnz() || v.c.size() != src.c.size() || !IsFullRow(v) ||
      !IsFullRow(src)) {
    v = MergeScaled(v, src, s.scale);
    return;
  }
  // Both rows hold columns 0..m-1: merge in place by index, in
  // MergeScaled's exact per-column operation sequence (0.0, += resident,
  // += product), so the bits match, signed zeros included.
  const size_t m = v.nnz();
  const double scale = s.scale;
  double* y = v.y.data();
  double* g = v.g.data();
  size_t zero_g = 0;
  for (size_t j = 0; j < m; ++j) {
    y[j] = (0.0 + y[j]) + src.y[j] * scale;
    g[j] = (0.0 + g[j]) + src.g[j] * scale;
    zero_g += g[j] == 0.0 ? 1 : 0;
  }
  double* c = v.c.data();
  for (size_t j = 0; j < v.c.size(); ++j) {
    c[j] = (0.0 + c[j]) + src.c[j] * scale;
  }
  // A column can come out exact zero on every channel only where its g
  // vanished (in variant 4 only through underflow).
  if (zero_g > 0) DropZeroColumns(v);
}

bool SparseVectorGossipPolicy::HasWeight(const Value& v) {
  return std::any_of(v.g.begin(), v.g.end(), [](double g) { return g != 0.0; });
}

SparseVectorGossipPolicy::Share SparseVectorGossipPolicy::Whole(
    const Value& v) {
  return Share{std::make_shared<const SparseVectorRow>(v), 1.0};
}

double SparseVectorGossipPolicy::Change(const Share& from, const Value& v,
                                        double sentinel, double threshold) {
  // Two-pointer union walk; a column absent on one side sits at the
  // sentinel there, as does the count ratio of a row without the channel.
  // Every term is >= 0: once the sum exceeds the threshold the comparison
  // is decided, so the walk stops there.
  const SparseVectorRow& a = *from.row;
  const bool use_count = !a.c.empty() || !v.c.empty();
  double l1 = 0.0;
  size_t ia = 0, ib = 0;
  while ((ia < a.nnz() || ib < v.nnz()) && !(l1 > threshold)) {
    const uint32_t ca = ia < a.nnz() ? a.cols[ia] : kNoColumn;
    const uint32_t cb = ib < v.nnz() ? v.cols[ib] : kNoColumn;
    double ra = sentinel, rb = sentinel;
    double rca = sentinel, rcb = sentinel;
    if (ca <= cb) {
      ra = ColumnRatio(a.y[ia], a.g[ia], sentinel);
      if (!a.c.empty()) rca = ColumnRatio(a.c[ia], a.g[ia], sentinel);
      ++ia;
    }
    if (cb <= ca) {
      rb = ColumnRatio(v.y[ib], v.g[ib], sentinel);
      if (!v.c.empty()) rcb = ColumnRatio(v.c[ib], v.g[ib], sentinel);
      ++ib;
    }
    l1 += std::fabs(rb - ra);
    if (use_count) l1 += std::fabs(rcb - rca);
  }
  return l1;
}

SparseVectorGossipPolicy::SyncFold::SyncFold(const std::vector<Value>& init,
                                             bool use_count, double sentinel)
    : SyncFoldBase(init, use_count, sentinel),
      all_cols_(init.size()),
      refs_(init.size()),
      replay_refs_(init.size(), 0),
      prev_nnz_(init.size(), 0) {
  std::iota(all_cols_.begin(), all_cols_.end(), 0u);
  for (const SparseVectorRow& row : init) total_nnz_ += row.nnz();
  peak_nnz_ = total_nnz_;
}

void SparseVectorGossipPolicy::SyncFold::BeginStep(
    const StepPlan& plan, const std::vector<uint8_t>& stopped,
    const std::vector<Value>& state) {
  const size_t n = state.size();
  for (size_t i = 0; i < n; ++i) {
    prev_nnz_[i] = state[i].nnz();
    replay_refs_[i] = 0;
  }
  for (size_t i = 0; i < n; ++i) {
    if (stopped[i]) continue;
    for (const PlanEntry& e : plan.inbox[i]) ++replay_refs_[e.sender];
  }
  for (size_t i = 0; i < n; ++i) {
    refs_[i].store(replay_refs_[i], std::memory_order_relaxed);
  }
}

FoldOutcome SparseVectorGossipPolicy::SyncFold::Fold(NodeId i,
                                                     const StepPlan& plan,
                                                     std::vector<Value>& state,
                                                     Value& next,
                                                     double threshold) {
  assert(!plan.inbox[i].empty());
  assert(next.nnz() == 0);
  // Previous-step rows are read-only here and released by whichever
  // merge consumes the last reference.
  const auto& inbox = plan.inbox[i];
  const size_t n = all_cols_.size();
  const bool all_full =
      std::all_of(inbox.begin(), inbox.end(), [&](const PlanEntry& e) {
        return state[e.sender].nnz() == n;
      });
  const FoldOutcome out = all_full
                              ? FoldFullRows(i, plan, state, next, threshold)
                              : FoldKWay(i, plan, state, next);

  // Release previous-step rows whose last consumer was this merge
  // (acq_rel: the release must observe every consumer's reads).
  for (const PlanEntry& e : inbox) {
    if (refs_[e.sender].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      state[e.sender] = SparseVectorRow();
    }
  }
  return out;
}

FoldOutcome SparseVectorGossipPolicy::SyncFold::FoldFullRows(
    NodeId i, const StepPlan& plan, const std::vector<Value>& state,
    Value& next, double threshold) const {
  const bool use_count = use_count_;
  const double sentinel = sentinel_;
  const size_t n = all_cols_.size();
  // Every source row holds columns 0..n-1, so column j is index j
  // everywhere. Per column, the first entry gives 0.0 + product and each
  // later one adds its product, in inbox order: the k-way walk's exact
  // operation sequence.
  const std::vector<PlanEntry>& inbox = plan.inbox[i];
  double* y = nullptr;
  double* g = nullptr;
  double* c = nullptr;
  const SparseVectorRow* old = nullptr;  // i's own previous row
  for (size_t k = 0; k < inbox.size(); ++k) {
    const PlanEntry& e = inbox[k];
    const double inv = 1.0 / (static_cast<double>(plan.k_used[e.sender]) + 1.0);
    const double scale = static_cast<double>(e.shares) * inv;
    const SparseVectorRow& src = state[e.sender];
    if (e.sender == i) old = &src;
    if (k == 0) {
      // Copied in and scaled in place: the row is sized once, with no
      // zero fill.
      next.y.assign(src.y.begin(), src.y.end());
      next.g.assign(src.g.begin(), src.g.end());
      if (use_count) next.c.assign(src.c.begin(), src.c.end());
      y = next.y.data();
      g = next.g.data();
      c = next.c.data();
      for (size_t j = 0; j < n; ++j) {
        y[j] = 0.0 + y[j] * scale;
        g[j] = 0.0 + g[j] * scale;
      }
      if (use_count) {
        for (size_t j = 0; j < n; ++j) c[j] = 0.0 + c[j] * scale;
      }
      continue;
    }
    const double* sy = src.y.data();
    const double* sg = src.g.data();
    for (size_t j = 0; j < n; ++j) {
      y[j] += sy[j] * scale;
      g[j] += sg[j] * scale;
    }
    if (use_count) {
      const double* sc = src.c.data();
      for (size_t j = 0; j < n; ++j) c[j] += sc[j] * scale;
    }
  }

  // eq. (7) by index, in the k-way walk's order (ratio term, then count
  // term). Its terms are >= 0, so once the running sum exceeds the
  // threshold the comparison is decided and the rest can be skipped. The
  // walk also counts weightless columns; a scan finishes the count past
  // an early stop.
  size_t zero_g = 0;
  double change = 0.0;
  size_t j = 0;
  for (; j < n && !(change > threshold); ++j) {
    const bool has = g[j] != 0.0;
    const bool had = old != nullptr && old->g[j] != 0.0;
    zero_g += has ? 0 : 1;
    const double r = has ? y[j] / g[j] : sentinel;
    const double prev = had ? old->y[j] / old->g[j] : sentinel;
    change += std::fabs(r - prev);
    if (use_count) {
      const double rc = has ? c[j] / g[j] : sentinel;
      const double prev_c = had ? old->c[j] / old->g[j] : sentinel;
      change += std::fabs(rc - prev_c);
    }
  }
  for (; j < n; ++j) zero_g += g[j] == 0.0 ? 1 : 0;
  FoldOutcome out;
  out.change = change;
  out.has_weight = zero_g < n;

  next.cols = all_cols_;
  // A column comes out exact zero on every channel only where its g
  // vanished (in variant 4 only through underflow); drop such columns as
  // the k-way walk does. The zero-g count keeps the common case to the one
  // pass above.
  if (zero_g > 0) DropZeroColumns(next);
  return out;
}

FoldOutcome SparseVectorGossipPolicy::SyncFold::FoldKWay(
    NodeId i, const StepPlan& plan, const std::vector<Value>& state,
    Value& next) const {
  // Hoisted out of the merge loop: the row writes below could alias the
  // members as far as the compiler knows.
  const bool use_count = use_count_;
  const double sentinel = sentinel_;
  std::vector<MergeCursor> cursors;
  cursors.reserve(plan.inbox[i].size());
  for (const PlanEntry& e : plan.inbox[i]) {
    const double inv = 1.0 / (static_cast<double>(plan.k_used[e.sender]) + 1.0);
    cursors.push_back({&state[e.sender], 0, static_cast<double>(e.shares) * inv,
                       e.sender == i});
  }
  SparseVectorRow& merged = next;

  FoldOutcome out;
  while (true) {
    uint32_t jmin = kNoColumn;
    for (const MergeCursor& cur : cursors) {
      if (cur.pos < cur.src->cols.size()) {
        jmin = std::min(jmin, cur.src->cols[cur.pos]);
      }
    }
    if (jmin == kNoColumn) break;
    double ay = 0.0, ag = 0.0, ac = 0.0;
    double old_y = 0.0, old_g = 0.0, old_c = 0.0;
    bool in_old = false;
    for (MergeCursor& cur : cursors) {
      if (cur.pos < cur.src->cols.size() && cur.src->cols[cur.pos] == jmin) {
        ay += cur.src->y[cur.pos] * cur.scale;
        ag += cur.src->g[cur.pos] * cur.scale;
        if (use_count) ac += cur.src->c[cur.pos] * cur.scale;
        if (cur.is_self) {
          in_old = true;
          old_y = cur.src->y[cur.pos];
          old_g = cur.src->g[cur.pos];
          if (use_count) old_c = cur.src->c[cur.pos];
        }
        ++cur.pos;
      }
    }
    // eq. (7) terms, in the dense fold's exact order (ratio term, then
    // count term). The previous-step ratio is recomputed from the kept
    // share's source row — the node's own old state.
    double r = ag != 0.0 ? ay / ag : sentinel;
    double prev = (in_old && old_g != 0.0) ? old_y / old_g : sentinel;
    out.change += std::fabs(r - prev);
    if (use_count) {
      double rc = ag != 0.0 ? ac / ag : sentinel;
      double prev_c = (in_old && old_g != 0.0) ? old_c / old_g : sentinel;
      out.change += std::fabs(rc - prev_c);
    }
    if (ag != 0.0) out.has_weight = true;
    if (ay != 0.0 || ag != 0.0 || ac != 0.0) {
      merged.cols.push_back(jmin);
      merged.y.push_back(ay);
      merged.g.push_back(ag);
      if (use_count) merged.c.push_back(ac);
    }
  }
  return out;
}

void SparseVectorGossipPolicy::SyncFold::EndStep(
    const StepPlan& plan, const std::vector<uint8_t>& stopped,
    const std::vector<Value>& next) {
  // Replay the serial engine's receiver-order bookkeeping (merge row i,
  // then release rows whose last consumer was i), so the reported peak is
  // identical at every thread count. (A threaded merge's instantaneous
  // footprint can transiently exceed it by the rows still queued for
  // release; the releases in Fold keep that slack to the in-flight shard
  // set.)
  for (size_t i = 0; i < next.size(); ++i) {
    if (stopped[i]) continue;
    total_nnz_ += next[i].nnz();
    peak_nnz_ = std::max(peak_nnz_, total_nnz_);
    for (const PlanEntry& e : plan.inbox[i]) {
      if (--replay_refs_[e.sender] == 0) total_nnz_ -= prev_nnz_[e.sender];
    }
  }
}

}  // namespace dgt
