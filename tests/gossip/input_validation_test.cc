// Every synchronous gossip front-end rejects the same bad inputs with
// InvalidArgument: a negative initial gossip weight (push-sum mass must
// be non-negative for y/g to be an average) and a non-positive
// convergence tolerance xi.

#include <vector>

#include "gossip/churn_engine.h"
#include "gossip/scalar_engine.h"
#include "gossip/sparse_vector_engine.h"
#include "gossip/vector_engine.h"
#include "test_util.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

using testing_util::MakePaGraph;

constexpr uint32_t kN = 12;

GossipOptions WithXi(double xi) {
  GossipOptions o;
  o.xi = xi;
  return o;
}

template <typename T>
void ExpectInvalid(const Result<T>& r) {
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
}

TEST(InputValidation, ScalarPushSum) {
  Graph g = MakePaGraph(kN);
  std::vector<double> y(kN, 0.5), w(kN, 1.0);
  ASSERT_TRUE(ScalarPushSum(&g, WithXi(1e-4)).Run(y, w).ok());
  w[3] = -1.0;
  ExpectInvalid(ScalarPushSum(&g, WithXi(1e-4)).Run(y, w));
  w[3] = 1.0;
  ExpectInvalid(ScalarPushSum(&g, WithXi(0.0)).Run(y, w));
}

TEST(InputValidation, VectorPushSum) {
  Graph g = MakePaGraph(kN);
  std::vector<std::vector<double>> y(kN, std::vector<double>(kN, 0.5));
  std::vector<std::vector<double>> w(kN, std::vector<double>(kN, 1.0));
  ASSERT_TRUE(VectorPushSum(&g, WithXi(1e-4)).Run(y, w).ok());
  w[2][5] = -1.0;
  ExpectInvalid(VectorPushSum(&g, WithXi(1e-4)).Run(y, w));
  w[2][5] = 1.0;
  ExpectInvalid(VectorPushSum(&g, WithXi(-1.0)).Run(y, w));
}

TEST(InputValidation, SparseVectorPushSum) {
  Graph g = MakePaGraph(kN);
  std::vector<SparseVectorRow> init(kN);
  for (uint32_t i = 0; i < kN; ++i) {
    init[i].cols = {i};
    init[i].y = {0.5};
    init[i].g = {1.0};
  }
  ASSERT_TRUE(SparseVectorPushSum(&g, WithXi(1e-4)).Run(init, false).ok());
  std::vector<SparseVectorRow> negative = init;
  negative[4].g[0] = -1.0;
  ExpectInvalid(SparseVectorPushSum(&g, WithXi(1e-4)).Run(negative, false));
  ExpectInvalid(SparseVectorPushSum(&g, WithXi(0.0)).Run(init, false));
}

TEST(InputValidation, ChurnPushSum) {
  Graph g = MakePaGraph(kN);
  std::vector<double> y(kN, 0.5), w(kN, 1.0);
  ASSERT_TRUE(ChurnPushSum(g, WithXi(1e-4), {}).Run(y, w).ok());
  w[7] = -1.0;
  ExpectInvalid(ChurnPushSum(g, WithXi(1e-4), {}).Run(y, w));
  w[7] = 1.0;
  ExpectInvalid(ChurnPushSum(g, WithXi(0.0), {}).Run(y, w));
}

}  // namespace
}  // namespace dgt
