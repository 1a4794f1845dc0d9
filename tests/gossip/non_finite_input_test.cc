// Every gossip front-end, synchronous and event-driven, rejects NaN and
// infinite inputs with InvalidArgument: values, gossip weights, count
// channels and the convergence tolerance xi. A NaN passes `w < 0.0` and
// `xi <= 0.0` alike, and a run fed one never converges — it spins to
// max_steps (or max_time) instead of failing.

#include <limits>
#include <vector>

#include "gossip/churn_engine.h"
#include "gossip/push_pull.h"
#include "gossip/scalar_engine.h"
#include "gossip/sparse_vector_engine.h"
#include "gossip/vector_engine.h"
#include "net/async_gossip.h"
#include "test_util.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

using testing_util::MakePaGraph;

constexpr uint32_t kN = 12;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
const double kBad[] = {kNaN, kInf, -kInf};

GossipOptions WithXi(double xi) {
  GossipOptions o;
  o.xi = xi;
  return o;
}

AsyncGossipOptions AsyncWithXi(double xi) {
  AsyncGossipOptions o;
  o.xi = xi;
  return o;
}

template <typename T>
void ExpectInvalid(const Result<T>& r) {
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
}

std::vector<SparseVectorRow> DiagonalRows(bool use_count) {
  std::vector<SparseVectorRow> init(kN);
  for (uint32_t i = 0; i < kN; ++i) {
    init[i].cols = {i};
    init[i].y = {0.5};
    init[i].g = {1.0};
    if (use_count) init[i].c = {1.0};
  }
  return init;
}

TEST(NonFiniteInput, ScalarPushSum) {
  Graph g = MakePaGraph(kN);
  const std::vector<double> y(kN, 0.5), w(kN, 1.0), c(kN, 1.0);
  ASSERT_TRUE(ScalarPushSum(&g, WithXi(1e-4)).Run(y, w, c).ok());
  for (double bad : kBad) {
    SCOPED_TRACE(bad);
    auto y2 = y, w2 = w, c2 = c;
    y2[3] = bad;
    ExpectInvalid(ScalarPushSum(&g, WithXi(1e-4)).Run(y2, w, c));
    w2[3] = bad;
    ExpectInvalid(ScalarPushSum(&g, WithXi(1e-4)).Run(y, w2, c));
    c2[3] = bad;
    ExpectInvalid(ScalarPushSum(&g, WithXi(1e-4)).Run(y, w, c2));
    ExpectInvalid(ScalarPushSum(&g, WithXi(bad)).Run(y, w, c));
  }
}

TEST(NonFiniteInput, VectorPushSum) {
  Graph g = MakePaGraph(kN);
  const std::vector<std::vector<double>> y(kN, std::vector<double>(kN, 0.5));
  const std::vector<std::vector<double>> w(kN, std::vector<double>(kN, 1.0));
  ASSERT_TRUE(VectorPushSum(&g, WithXi(1e-4)).Run(y, w, w).ok());
  for (double bad : kBad) {
    SCOPED_TRACE(bad);
    auto y2 = y, w2 = w, c2 = w;
    y2[2][5] = bad;
    ExpectInvalid(VectorPushSum(&g, WithXi(1e-4)).Run(y2, w, w));
    w2[2][5] = bad;
    ExpectInvalid(VectorPushSum(&g, WithXi(1e-4)).Run(y, w2, w));
    c2[2][5] = bad;
    ExpectInvalid(VectorPushSum(&g, WithXi(1e-4)).Run(y, w, c2));
    ExpectInvalid(VectorPushSum(&g, WithXi(bad)).Run(y, w, w));
  }
}

TEST(NonFiniteInput, SparseVectorPushSum) {
  Graph g = MakePaGraph(kN);
  const std::vector<SparseVectorRow> init = DiagonalRows(true);
  ASSERT_TRUE(SparseVectorPushSum(&g, WithXi(1e-4)).Run(init, true).ok());
  for (double bad : kBad) {
    SCOPED_TRACE(bad);
    auto y2 = init, w2 = init, c2 = init;
    y2[4].y[0] = bad;
    ExpectInvalid(SparseVectorPushSum(&g, WithXi(1e-4)).Run(y2, true));
    w2[4].g[0] = bad;
    ExpectInvalid(SparseVectorPushSum(&g, WithXi(1e-4)).Run(w2, true));
    c2[4].c[0] = bad;
    ExpectInvalid(SparseVectorPushSum(&g, WithXi(1e-4)).Run(c2, true));
    ExpectInvalid(SparseVectorPushSum(&g, WithXi(bad)).Run(init, true));
  }
}

TEST(NonFiniteInput, ChurnPushSum) {
  Graph g = MakePaGraph(kN);
  const std::vector<double> y(kN, 0.5), w(kN, 1.0);
  ASSERT_TRUE(ChurnPushSum(g, WithXi(1e-4), {}).Run(y, w).ok());
  for (double bad : kBad) {
    SCOPED_TRACE(bad);
    auto y2 = y, w2 = w;
    y2[7] = bad;
    ExpectInvalid(ChurnPushSum(g, WithXi(1e-4), {}).Run(y2, w));
    w2[7] = bad;
    ExpectInvalid(ChurnPushSum(g, WithXi(1e-4), {}).Run(y, w2));
    ExpectInvalid(ChurnPushSum(g, WithXi(bad), {}).Run(y, w));
  }
}

TEST(NonFiniteInput, PushPullAveraging) {
  Graph g = MakePaGraph(kN);
  const std::vector<double> v(kN, 0.5);
  PushPullOptions o;
  ASSERT_TRUE(RunPushPullAveraging(g, v, o).ok());
  for (double bad : kBad) {
    SCOPED_TRACE(bad);
    o.xi = bad;
    ExpectInvalid(RunPushPullAveraging(g, v, o));
  }
}

TEST(NonFiniteInput, AsyncPushSum) {
  Graph g = MakePaGraph(kN);
  const std::vector<double> y(kN, 0.5), w(kN, 1.0);
  ASSERT_TRUE(AsyncPushSum(&g, AsyncWithXi(1e-4)).Run(y, w).ok());
  for (double bad : kBad) {
    SCOPED_TRACE(bad);
    auto y2 = y, w2 = w;
    y2[1] = bad;
    ExpectInvalid(AsyncPushSum(&g, AsyncWithXi(1e-4)).Run(y2, w));
    w2[1] = bad;
    ExpectInvalid(AsyncPushSum(&g, AsyncWithXi(1e-4)).Run(y, w2));
    ExpectInvalid(AsyncPushSum(&g, AsyncWithXi(bad)).Run(y, w));
    AsyncGossipOptions o = AsyncWithXi(1e-4);
    o.push_period = bad;
    ExpectInvalid(AsyncPushSum(&g, o).Run(y, w));
    o = AsyncWithXi(1e-4);
    o.period_jitter = bad;
    ExpectInvalid(AsyncPushSum(&g, o).Run(y, w));
  }
}

TEST(NonFiniteInput, AsyncVectorPushSum) {
  Graph g = MakePaGraph(kN);
  const std::vector<std::vector<double>> y(kN, std::vector<double>(kN, 0.5));
  const std::vector<std::vector<double>> w(kN, std::vector<double>(kN, 1.0));
  ASSERT_TRUE(AsyncVectorPushSum(&g, AsyncWithXi(1e-3)).Run(y, w, w).ok());
  for (double bad : kBad) {
    SCOPED_TRACE(bad);
    auto y2 = y, w2 = w, c2 = w;
    y2[0][9] = bad;
    ExpectInvalid(AsyncVectorPushSum(&g, AsyncWithXi(1e-3)).Run(y2, w, w));
    w2[0][9] = bad;
    ExpectInvalid(AsyncVectorPushSum(&g, AsyncWithXi(1e-3)).Run(y, w2, w));
    c2[0][9] = bad;
    ExpectInvalid(AsyncVectorPushSum(&g, AsyncWithXi(1e-3)).Run(y, w, c2));
    ExpectInvalid(AsyncVectorPushSum(&g, AsyncWithXi(bad)).Run(y, w, w));
  }
}

TEST(NonFiniteInput, AsyncSparsePushSum) {
  Graph g = MakePaGraph(kN);
  const std::vector<SparseVectorRow> init = DiagonalRows(true);
  ASSERT_TRUE(AsyncSparsePushSum(&g, AsyncWithXi(1e-3)).Run(init, true).ok());
  for (double bad : kBad) {
    SCOPED_TRACE(bad);
    auto y2 = init, w2 = init, c2 = init;
    y2[6].y[0] = bad;
    ExpectInvalid(AsyncSparsePushSum(&g, AsyncWithXi(1e-3)).Run(y2, true));
    w2[6].g[0] = bad;
    ExpectInvalid(AsyncSparsePushSum(&g, AsyncWithXi(1e-3)).Run(w2, true));
    c2[6].c[0] = bad;
    ExpectInvalid(AsyncSparsePushSum(&g, AsyncWithXi(1e-3)).Run(c2, true));
    ExpectInvalid(AsyncSparsePushSum(&g, AsyncWithXi(bad)).Run(init, true));
  }
}

}  // namespace
}  // namespace dgt
