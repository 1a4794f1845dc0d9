// Bit-level golden pin for the synchronous gossip engines.
//
// Every case runs one engine front-end on a small fixed PA graph and
// compares its counters and an FNV-1a hash over the bit patterns of every
// final double (and every final column index) against values recorded
// from the hand-written per-engine step loops that predate the shared
// executor. A refactor of the executor or of a value policy's fold that
// changes a single rounding anywhere fails here, even where the looser
// gates (fig3's 10 % count drift, Table 1's approximate 0.42-0.43,
// thread-count equivalence) would not notice.
//
// On a mismatch the test prints the observed golden row in initializer
// syntax; a change that alters results on purpose must say so and re-pin.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "gossip/churn_engine.h"
#include "gossip/scalar_engine.h"
#include "gossip/sparse_vector_engine.h"
#include "gossip/vector_engine.h"
#include "test_util.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

using testing_util::MakePaGraph;
using testing_util::RandomValues;

class Fnv1a {
 public:
  void Add(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    AddBits(bits);
  }
  void Add(const std::vector<double>& v) {
    AddBits(v.size());
    for (double x : v) Add(x);
  }
  void Add(const std::vector<uint32_t>& v) {
    AddBits(v.size());
    for (uint32_t x : v) AddBits(x);
  }
  void Add(const std::vector<uint8_t>& v) {
    AddBits(v.size());
    for (uint8_t x : v) AddBits(x);
  }
  void AddBits(uint64_t bits) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (bits >> (8 * b)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

enum class Engine { kScalar, kDense, kSparse, kChurn };

struct Golden {
  Engine engine;
  PushStrategy strategy;
  GossipRngMode rng_mode;
  bool lossy;  // packet_loss_prob 0.2 instead of 0
  uint32_t steps;
  bool converged;
  uint64_t gossip_messages;
  uint64_t control_messages;
  // Bit pattern of mean_messages_per_active_node_step (0 for churn, whose
  // result has no such field).
  uint64_t mean_messages_bits;
  // Sparse engine only; 0 elsewhere.
  uint64_t peak_state_nonzeros;
  uint64_t hash;
};

struct Observed {
  uint32_t steps = 0;
  bool converged = false;
  uint64_t gossip_messages = 0;
  uint64_t control_messages = 0;
  uint64_t mean_messages_bits = 0;
  uint64_t peak_state_nonzeros = 0;
  uint64_t hash = 0;
};

GossipOptions Options(const Golden& g) {
  GossipOptions o;
  o.strategy = g.strategy;
  o.rng_mode = g.rng_mode;
  o.packet_loss_prob = g.lossy ? 0.2 : 0.0;
  o.xi = 1e-6;
  o.seed = 17;
  o.max_steps = 100000;
  return o;
}

// GCLR-shaped vector state: sparse opinions (y, count 1), the one-hot
// gossip weight on the diagonal — all three channels exercised.
struct VectorInit {
  std::vector<std::vector<double>> y, g, c;
};

VectorInit MakeVectorInit(uint32_t n) {
  VectorInit v;
  v.y.assign(n, std::vector<double>(n, 0.0));
  v.g.assign(n, std::vector<double>(n, 0.0));
  v.c.assign(n, std::vector<double>(n, 0.0));
  Rng rng(91);
  for (uint32_t i = 0; i < n; ++i) {
    v.g[i][i] = 1.0;
    for (uint32_t j = 0; j < n; ++j) {
      if (i != j && rng.NextBernoulli(0.3)) {
        v.y[i][j] = rng.NextDouble();
        v.c[i][j] = 1.0;
      }
    }
  }
  return v;
}

std::vector<SparseVectorRow> ToSparse(const VectorInit& v) {
  const size_t n = v.y.size();
  std::vector<SparseVectorRow> rows(n);
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      if (v.y[i][j] == 0.0 && v.g[i][j] == 0.0 && v.c[i][j] == 0.0) continue;
      rows[i].cols.push_back(j);
      rows[i].y.push_back(v.y[i][j]);
      rows[i].g.push_back(v.g[i][j]);
      rows[i].c.push_back(v.c[i][j]);
    }
  }
  return rows;
}

Observed RunCase(const Golden& golden) {
  GossipOptions o = Options(golden);
  Observed obs;
  Fnv1a h;
  switch (golden.engine) {
    case Engine::kScalar: {
      const uint32_t n = 40;
      Graph g = MakePaGraph(n, 2, 61);
      auto y0 = RandomValues(n, 62);
      auto c0 = RandomValues(n, 63);
      std::vector<double> g0(n, 1.0);
      g0[3] = 0.0;  // a weightless start exercises the sentinel path
      o.track_trace = true;
      auto r = ScalarPushSum(&g, o).Run(y0, g0, c0);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (!r.ok()) return obs;
      obs = {r->steps,
             r->converged,
             r->gossip_messages,
             r->control_messages,
             DoubleBits(r->mean_messages_per_active_node_step),
             0,
             0};
      h.Add(r->ratios);
      h.Add(r->values);
      h.Add(r->weights);
      h.Add(r->counts);
      for (const auto& row : r->trace) h.Add(row);
      break;
    }
    case Engine::kDense: {
      const uint32_t n = 20;
      Graph g = MakePaGraph(n, 2, 64);
      VectorInit init = MakeVectorInit(n);
      auto r = VectorPushSum(&g, o).Run(init.y, init.g, init.c);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (!r.ok()) return obs;
      obs = {r->steps,
             r->converged,
             r->gossip_messages,
             r->control_messages,
             DoubleBits(r->mean_messages_per_active_node_step),
             0,
             0};
      for (const auto& row : r->estimates) h.Add(row);
      for (const auto& row : r->count_estimates) h.Add(row);
      break;
    }
    case Engine::kSparse: {
      const uint32_t n = 20;
      Graph g = MakePaGraph(n, 2, 64);
      auto r = SparseVectorPushSum(&g, o).Run(ToSparse(MakeVectorInit(n)),
                                              /*use_count=*/true);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (!r.ok()) return obs;
      obs = {r->steps,
             r->converged,
             r->gossip_messages,
             r->control_messages,
             DoubleBits(r->mean_messages_per_active_node_step),
             r->peak_state_nonzeros,
             0};
      for (const auto& row : r->rows) {
        h.Add(row.cols);
        h.Add(row.estimates);
        h.Add(row.count_estimates);
      }
      break;
    }
    case Engine::kChurn: {
      const uint32_t n = 40;
      Graph g = MakePaGraph(n, 2, 65);
      auto y0 = RandomValues(n, 66);
      std::vector<double> g0(n, 1.0);
      ChurnOptions churn;
      churn.leave_prob = 0.02;
      churn.join_rate = 0.4;
      churn.churn_steps = 15;
      churn.seed = 67;
      auto r = ChurnPushSum(g, o, churn).Run(y0, g0);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (!r.ok()) return obs;
      obs = {r->steps,
             r->converged,
             r->gossip_messages,
             r->control_messages,
             0,
             0,
             0};
      h.Add(r->ratios);
      h.Add(r->alive);
      h.Add(r->expected_ratio);
      h.AddBits(r->live_count);
      h.AddBits(r->departures);
      h.AddBits(r->arrivals);
      break;
    }
  }
  obs.hash = h.value();
  return obs;
}

const char* EngineName(Engine e) {
  switch (e) {
    case Engine::kScalar:
      return "kScalar";
    case Engine::kDense:
      return "kDense";
    case Engine::kSparse:
      return "kSparse";
    case Engine::kChurn:
      return "kChurn";
  }
  return "?";
}

std::string GoldenRow(const Golden& g, const Observed& o) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{Engine::%s, %s, %s, %s, %" PRIu32
      ", %s, %" PRIu64 "u, %" PRIu64 "u, 0x%016" PRIx64 "u, %" PRIu64
      "u, 0x%016" PRIx64 "u},",
      EngineName(g.engine),
      g.strategy == PushStrategy::kUniform ? "kU" : "kD",
      g.rng_mode == GossipRngMode::kSequential ? "kSeq" : "kCtr",
      g.lossy ? "true" : "false", o.steps, o.converged ? "true" : "false",
      o.gossip_messages, o.control_messages, o.mean_messages_bits,
      o.peak_state_nonzeros, o.hash);
  return buf;
}

constexpr PushStrategy kU = PushStrategy::kUniform;
constexpr PushStrategy kD = PushStrategy::kDifferential;
constexpr GossipRngMode kSeq = GossipRngMode::kSequential;
constexpr GossipRngMode kCtr = GossipRngMode::kCounter;

// clang-format off
const Golden kGoldens[] = {
    {Engine::kScalar, kU, kSeq, false, 144, true, 4296u,
     154u, 0x3ff090be4e39da56u, 0u, 0xc23eff4d4a98df26u},
    {Engine::kScalar, kU, kSeq, true, 168, true, 5642u,
     154u, 0x3ff06da50d35560au, 0u, 0x1678983cdb29b900u},
    {Engine::kScalar, kU, kCtr, false, 124, true, 4113u,
     154u, 0x3ff097687f1f815eu, 0u, 0x96c7ec3ea3819451u},
    {Engine::kScalar, kU, kCtr, true, 163, true, 5372u,
     154u, 0x3ff0745ea8d1a1a1u, 0u, 0xd70295fea23aaca9u},
    {Engine::kScalar, kD, kSeq, false, 102, true, 4277u,
     308u, 0x3ff492fec5e7ad5cu, 0u, 0x56a0dc04fbaf691eu},
    {Engine::kScalar, kD, kSeq, true, 126, true, 5817u,
     308u, 0x3ff4377fc206b328u, 0u, 0x26c6942981be492fu},
    {Engine::kScalar, kD, kCtr, false, 97, true, 4245u,
     308u, 0x3ff4963cd249cb80u, 0u, 0x678bc05a5d6291eeu},
    {Engine::kScalar, kD, kCtr, true, 129, true, 5550u,
     308u, 0x3ff4435e864d5d72u, 0u, 0x28988aafcdd5ee0eu},
    {Engine::kDense, kU, kSeq, false, 120, true, 2179u,
     74u, 0x3ff089c424818d66u, 0u, 0x034c9485886f2017u},
    {Engine::kDense, kU, kSeq, true, 137, true, 2564u,
     74u, 0x3ff0758d8d93c869u, 0u, 0xbac33136abdd3a01u},
    {Engine::kDense, kU, kCtr, false, 119, true, 2102u,
     74u, 0x3ff08eb44c25a6c2u, 0u, 0x2b2944b856a3377fu},
    {Engine::kDense, kU, kCtr, true, 140, true, 2631u,
     74u, 0x3ff072c4375865afu, 0u, 0x997aa2cbe7e4a468u},
    {Engine::kDense, kD, kSeq, false, 104, true, 2245u,
     148u, 0x3ff39c52e58cf1f8u, 0u, 0xcb46d8510efa258eu},
    {Engine::kDense, kD, kSeq, true, 142, true, 3125u,
     148u, 0x3ff3451568454493u, 0u, 0xa934c7e08239bcb6u},
    {Engine::kDense, kD, kCtr, false, 104, true, 2193u,
     148u, 0x3ff3a3b3d8cae52au, 0u, 0xd0bd2ff2782c3197u},
    {Engine::kDense, kD, kCtr, true, 133, true, 2860u,
     148u, 0x3ff359ec7b601161u, 0u, 0x1a3f31c92952ac50u},
    {Engine::kSparse, kU, kSeq, false, 120, true, 2179u,
     74u, 0x3ff089c424818d66u, 560u, 0xfa34ac7ce0395027u},
    {Engine::kSparse, kU, kSeq, true, 137, true, 2564u,
     74u, 0x3ff0758d8d93c869u, 540u, 0x5e29fd16bc0c91c5u},
    {Engine::kSparse, kU, kCtr, false, 119, true, 2102u,
     74u, 0x3ff08eb44c25a6c2u, 560u, 0xe103d24baff1cb97u},
    {Engine::kSparse, kU, kCtr, true, 140, true, 2631u,
     74u, 0x3ff072c4375865afu, 560u, 0x8629bb4446940938u},
    {Engine::kSparse, kD, kSeq, false, 104, true, 2245u,
     148u, 0x3ff39c52e58cf1f8u, 560u, 0x677b2200d7b18feeu},
    {Engine::kSparse, kD, kSeq, true, 142, true, 3125u,
     148u, 0x3ff3451568454493u, 560u, 0xcc59254c9894504au},
    {Engine::kSparse, kD, kCtr, false, 104, true, 2193u,
     148u, 0x3ff3a3b3d8cae52au, 580u, 0x30564c78aa9feecfu},
    {Engine::kSparse, kD, kCtr, true, 133, true, 2860u,
     148u, 0x3ff359ec7b601161u, 560u, 0xb4ab736d118f9fccu},
    {Engine::kChurn, kU, kSeq, false, 145, true, 4113u,
     186u, 0x0000000000000000u, 0u, 0xb61b09e74d1c32aau},
    {Engine::kChurn, kU, kSeq, true, 230, true, 5338u,
     186u, 0x0000000000000000u, 0u, 0xabdd3f99b2f55905u},
    {Engine::kChurn, kU, kCtr, false, 150, true, 4241u,
     186u, 0x0000000000000000u, 0u, 0x0078795176a8b9f6u},
    {Engine::kChurn, kU, kCtr, true, 279, true, 5532u,
     186u, 0x0000000000000000u, 0u, 0x21a2c89b69eabf76u},
    {Engine::kChurn, kD, kSeq, false, 124, true, 4509u,
     340u, 0x0000000000000000u, 0u, 0xd5b9e0e61fd0df47u},
    {Engine::kChurn, kD, kSeq, true, 172, true, 5342u,
     340u, 0x0000000000000000u, 0u, 0x697907a55ef6e453u},
    {Engine::kChurn, kD, kCtr, false, 115, true, 4108u,
     340u, 0x0000000000000000u, 0u, 0x69ffed3e13500cd6u},
    {Engine::kChurn, kD, kCtr, true, 155, true, 5558u,
     340u, 0x0000000000000000u, 0u, 0x64156486f4e6e9ffu},
};
// clang-format on

class SyncEngineGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(SyncEngineGolden, MatchesPinnedBits) {
  const Golden& golden = GetParam();
  const Observed o = RunCase(golden);
  EXPECT_EQ(o.steps, golden.steps);
  EXPECT_EQ(o.converged, golden.converged);
  EXPECT_EQ(o.gossip_messages, golden.gossip_messages);
  EXPECT_EQ(o.control_messages, golden.control_messages);
  EXPECT_EQ(o.mean_messages_bits, golden.mean_messages_bits);
  EXPECT_EQ(o.peak_state_nonzeros, golden.peak_state_nonzeros);
  EXPECT_EQ(o.hash, golden.hash) << "observed: " << GoldenRow(golden, o);
}

std::string CaseName(const ::testing::TestParamInfo<Golden>& info) {
  const Golden& g = info.param;
  std::string name = EngineName(g.engine) + 1;  // drop the leading 'k'
  name += g.strategy == PushStrategy::kDifferential ? "Diff" : "Unif";
  name += g.rng_mode == GossipRngMode::kSequential ? "Seq" : "Counter";
  name += g.lossy ? "Loss20" : "NoLoss";
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllEngines, SyncEngineGolden,
                         ::testing::ValuesIn(kGoldens), CaseName);

}  // namespace
}  // namespace dgt
