// Bit-level golden pin for the event-driven gossip engine.
//
// Every case runs one async front-end on a small fixed PA graph and
// compares its counters, the bits of its convergence sim-time and an
// FNV-1a hash over the bit patterns of every final double (and every
// final column index) against values recorded before the sparse policy's
// full-row absorb existed. A change to the engine or to a value policy's
// Split/Absorb that moves a single rounding anywhere fails here, even
// where the looser gates (mass conservation, dense/sparse agreement,
// thread-count equivalence) would not notice.
//
// The scalar front-end (AsyncPushSum) has no count channel; its
// count-on cases drive AsyncEventEngine<ScalarGossipPolicy> directly.
//
// On a mismatch the test prints the observed golden row in initializer
// syntax; a change that alters results on purpose must say so and re-pin.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gossip/gossip_state.h"
#include "net/async_engine.h"
#include "net/async_gossip.h"
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

enum class Engine { kScalar, kDense, kSparse };

struct Golden {
  Engine engine;
  bool use_count;
  bool lossy;  // packet_loss_prob 0.2 instead of 0
  bool converged;
  uint64_t events;
  uint64_t gossip_messages;
  uint64_t control_messages;
  uint32_t max_node_firings;
  uint64_t sim_time_bits;
  uint64_t hash;
};

struct Observed {
  bool converged = false;
  uint64_t events = 0;
  uint64_t gossip_messages = 0;
  uint64_t control_messages = 0;
  uint32_t max_node_firings = 0;
  uint64_t sim_time_bits = 0;
  uint64_t hash = 0;
};

AsyncGossipOptions Options(const Golden& g) {
  AsyncGossipOptions o;
  o.packet_loss_prob = g.lossy ? 0.2 : 0.0;
  o.xi = 1e-6;
  o.seed = 23;
  return o;
}

void Record(const AsyncEngineStats& s, Observed& obs) {
  obs.converged = s.converged;
  obs.events = s.events;
  obs.gossip_messages = s.gossip_messages;
  obs.control_messages = s.control_messages;
  obs.max_node_firings = s.max_node_firings;
  obs.sim_time_bits = DoubleBits(s.sim_time);
}

// GCLR-shaped vector state: sparse opinions (y, count 1), the one-hot
// gossip weight on the diagonal. The count channel is empty when unused.
struct VectorInit {
  std::vector<std::vector<double>> y, g, c;
};

VectorInit MakeVectorInit(uint32_t n, bool use_count) {
  VectorInit v;
  v.y.assign(n, std::vector<double>(n, 0.0));
  v.g.assign(n, std::vector<double>(n, 0.0));
  std::vector<std::vector<double>> c(n, std::vector<double>(n, 0.0));
  Rng rng(93);
  for (uint32_t i = 0; i < n; ++i) {
    v.g[i][i] = 1.0;
    for (uint32_t j = 0; j < n; ++j) {
      if (i != j && rng.NextBernoulli(0.3)) {
        v.y[i][j] = rng.NextDouble();
        c[i][j] = 1.0;
      }
    }
  }
  if (use_count) v.c = std::move(c);
  return v;
}

std::vector<SparseVectorRow> ToSparse(const VectorInit& v) {
  const size_t n = v.y.size();
  const bool use_count = !v.c.empty();
  std::vector<SparseVectorRow> rows(n);
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      const double c = use_count ? v.c[i][j] : 0.0;
      if (v.y[i][j] == 0.0 && v.g[i][j] == 0.0 && c == 0.0) continue;
      rows[i].cols.push_back(j);
      rows[i].y.push_back(v.y[i][j]);
      rows[i].g.push_back(v.g[i][j]);
      if (use_count) rows[i].c.push_back(c);
    }
  }
  return rows;
}

Observed RunCase(const Golden& golden) {
  const AsyncGossipOptions o = Options(golden);
  Observed obs;
  Fnv1a h;
  switch (golden.engine) {
    case Engine::kScalar: {
      const uint32_t n = 40;
      Graph g = MakePaGraph(n, 2, 71);
      const auto y0 = RandomValues(n, 72);
      std::vector<double> g0(n, 1.0);
      g0[5] = 0.0;  // a weightless start exercises the sentinel path
      if (!golden.use_count) {
        auto r = AsyncPushSum(&g, o).Run(y0, g0);
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        if (!r.ok()) return obs;
        obs = {r->converged,        r->events,
               r->gossip_messages,  r->control_messages,
               r->max_node_firings, DoubleBits(r->sim_time),
               0};
        h.Add(r->ratios);
        h.Add(r->values);
        h.Add(r->weights);
        break;
      }
      const auto c0 = RandomValues(n, 73);
      std::vector<ScalarGossipPolicy::Value> init(n);
      for (uint32_t i = 0; i < n; ++i) init[i] = {y0[i], g0[i], c0[i]};
      auto r = AsyncEventEngine<ScalarGossipPolicy>(&g, o).Run(init);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (!r.ok()) return obs;
      Record(r->stats, obs);
      for (const auto& v : r->values) {
        h.Add(v.y);
        h.Add(v.g);
        h.Add(v.c);
      }
      break;
    }
    case Engine::kDense: {
      const uint32_t n = 20;
      Graph g = MakePaGraph(n, 2, 74);
      const VectorInit init = MakeVectorInit(n, golden.use_count);
      auto r = AsyncVectorPushSum(&g, o).Run(init.y, init.g, init.c);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (!r.ok()) return obs;
      Record(r->stats, obs);
      for (const auto& row : r->y) h.Add(row);
      for (const auto& row : r->g) h.Add(row);
      for (const auto& row : r->c) h.Add(row);
      break;
    }
    case Engine::kSparse: {
      const uint32_t n = 20;
      Graph g = MakePaGraph(n, 2, 74);
      auto r = AsyncSparsePushSum(&g, o).Run(
          ToSparse(MakeVectorInit(n, golden.use_count)), golden.use_count);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (!r.ok()) return obs;
      Record(r->stats, obs);
      for (const auto& row : r->rows) {
        h.Add(row.cols);
        h.Add(row.y);
        h.Add(row.g);
        h.Add(row.c);
      }
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
  }
  return "?";
}

std::string GoldenRow(const Golden& g, const Observed& o) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{Engine::%s, %s, %s, %s, %" PRIu64 "u, %" PRIu64
                "u, %" PRIu64 "u, %" PRIu32 ", 0x%016" PRIx64
                "u, 0x%016" PRIx64 "u},",
                EngineName(g.engine), g.use_count ? "true" : "false",
                g.lossy ? "true" : "false", o.converged ? "true" : "false",
                o.events, o.gossip_messages, o.control_messages,
                o.max_node_firings, o.sim_time_bits, o.hash);
  return buf;
}

// clang-format off
const Golden kGoldens[] = {
    {Engine::kScalar, false, false, true, 6209u, 3183u, 308u,
     85, 0x4054b62beb3e52c6u, 0xd50bc110271a7224u},
    {Engine::kScalar, false, true, true, 7655u, 4394u, 308u,
     116, 0x405c67d4868677fdu, 0xba004cf66b1e6e7bu},
    {Engine::kScalar, true, false, true, 6209u, 3183u, 308u,
     85, 0x4054b62beb3e52c6u, 0x8e1bcabd1850ae54u},
    {Engine::kScalar, true, true, true, 7655u, 4394u, 308u,
     116, 0x405c67d4868677fdu, 0x92f48b5b64a60ee6u},
    {Engine::kDense, false, false, true, 4010u, 2070u, 148u,
     101, 0x4058da0244895214u, 0xed5be3c937f7c91eu},
    {Engine::kDense, false, true, true, 4855u, 2815u, 148u,
     131, 0x4060589acdfa4fb1u, 0x3367165777eec61bu},
    {Engine::kDense, true, false, true, 4191u, 2164u, 148u,
     105, 0x405a0a2c8ab6bd68u, 0x52aba63118a91a52u},
    {Engine::kDense, true, true, true, 5084u, 2956u, 148u,
     138, 0x40612ae4db662c97u, 0xee6d4ba8059d87f4u},
    {Engine::kSparse, false, false, true, 4010u, 2070u, 148u,
     101, 0x4058da0244895214u, 0xcc4b614c74d40206u},
    {Engine::kSparse, false, true, true, 4855u, 2815u, 148u,
     131, 0x4060589acdfa4fb1u, 0x99006368965fa8a3u},
    {Engine::kSparse, true, false, true, 4191u, 2164u, 148u,
     105, 0x405a0a2c8ab6bd68u, 0x27d79e7ace55904au},
    {Engine::kSparse, true, true, true, 5084u, 2956u, 148u,
     138, 0x40612ae4db662c97u, 0xb79463801fc994c0u},
};
// clang-format on

class AsyncEngineGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(AsyncEngineGolden, MatchesPinnedBits) {
  const Golden& golden = GetParam();
  const Observed o = RunCase(golden);
  EXPECT_EQ(o.converged, golden.converged);
  EXPECT_EQ(o.events, golden.events);
  EXPECT_EQ(o.gossip_messages, golden.gossip_messages);
  EXPECT_EQ(o.control_messages, golden.control_messages);
  EXPECT_EQ(o.max_node_firings, golden.max_node_firings);
  EXPECT_EQ(o.sim_time_bits, golden.sim_time_bits);
  EXPECT_EQ(o.hash, golden.hash) << "observed: " << GoldenRow(golden, o);
}

std::string CaseName(const ::testing::TestParamInfo<Golden>& info) {
  const Golden& g = info.param;
  std::string name = EngineName(g.engine) + 1;  // drop the leading 'k'
  name += g.use_count ? "Count" : "NoCount";
  name += g.lossy ? "Loss20" : "NoLoss";
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllFrontEnds, AsyncEngineGolden,
                         ::testing::ValuesIn(kGoldens), CaseName);

}  // namespace
}  // namespace dgt
