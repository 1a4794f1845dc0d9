// Seeded random-frame fuzzing of the wire decoder (no libFuzzer needed, so
// it runs in every build, sanitizer legs included). Inputs are random
// bytes, and bit-flipped, truncated, extended and length-corrupted
// mutations of valid frames of every message type. For each one,
// DecodeFrame must not crash (the sanitizers catch out-of-bounds reads
// and leaks) and must either
//   - return kOk with a message that encodes back to the input bytes, or
//   - return one of the decoder's named errors (kMalformedFrame,
//     kVersionMismatch, kUnknownType) with a reason.
// The decoder ignores the header's error byte outside error replies, so
// the re-encoded frame is compared with that byte as Encode writes it.

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "rpc/wire.h"

namespace dgt {
namespace rpc {
namespace {

constexpr uint64_t kSeed = 20261020;
constexpr int kFramesPerType = 24;
constexpr int kMutationsPerFrame = 24;
constexpr int kRandomInputs = 20000;
// Failures reported in full before the rest are only counted.
constexpr int kMaxReported = 5;

// --- Random valid messages ----------------------------------------------

double RandomDouble(Rng& rng) {
  const uint64_t bits = rng.NextU64();
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

uint32_t RandomU32(Rng& rng) { return static_cast<uint32_t>(rng.NextU64()); }

std::string RandomName(Rng& rng) {
  std::string s(rng.NextBelow(7), '\0');
  for (char& ch : s) ch = static_cast<char>(rng.NextBelow(256));
  return s;
}

std::vector<uint8_t> RandomFrame(MessageType type, Rng& rng) {
  const uint64_t id = rng.NextU64();
  const size_t n = rng.NextBelow(6);
  switch (type) {
    case MessageType::kPointQueryRequest:
      return Encode(id, PointQueryRequest{RandomU32(rng), RandomU32(rng)});
    case MessageType::kBatchQueryRequest: {
      BatchQueryRequest m{RandomU32(rng), {}};
      for (size_t i = 0; i < n; ++i) m.targets.push_back(RandomU32(rng));
      return Encode(id, m);
    }
    case MessageType::kTopKQueryRequest:
      return Encode(id, TopKQueryRequest{RandomU32(rng), RandomU32(rng)});
    case MessageType::kTrustUpdateRequest:
      return Encode(id, TrustUpdateRequest{RandomU32(rng), RandomU32(rng),
                                           RandomDouble(rng),
                                           rng.NextBernoulli(0.5)});
    case MessageType::kPingRequest:
      return Encode(id, PingRequest{});
    case MessageType::kStatsRequest:
      return Encode(id, StatsRequest{});
    case MessageType::kPointQueryReply:
      return Encode(id, PointQueryReply{rng.NextU64(), RandomDouble(rng)});
    case MessageType::kBatchQueryReply: {
      BatchQueryReply m{rng.NextU64(), {}};
      for (size_t i = 0; i < n; ++i) m.scores.push_back(RandomDouble(rng));
      return Encode(id, m);
    }
    case MessageType::kTopKQueryReply: {
      TopKQueryReply m{rng.NextU64(), {}, {}};
      for (size_t i = 0; i < n; ++i) {
        m.ids.push_back(RandomU32(rng));
        m.scores.push_back(RandomDouble(rng));
      }
      return Encode(id, m);
    }
    case MessageType::kTrustUpdateReply:
      return Encode(id, TrustUpdateReply{});
    case MessageType::kPingReply:
      return Encode(id, PingReply{rng.NextU64()});
    case MessageType::kStatsResponse: {
      StatsResponse m;
      for (size_t i = rng.NextBelow(3); i > 0; --i) {
        m.counters.emplace_back(RandomName(rng), rng.NextU64());
      }
      for (size_t i = rng.NextBelow(3); i > 0; --i) {
        m.gauges.emplace_back(RandomName(rng),
                              static_cast<int64_t>(rng.NextU64()));
      }
      for (size_t i = rng.NextBelow(3); i > 0; --i) {
        HistogramStat h{rng.NextU64(), rng.NextU64(), {}};
        for (uint32_t b = 0; b < obs::kHistogramBuckets; ++b) {
          if (rng.NextBernoulli(0.05)) h.buckets.emplace_back(b, rng.NextU64());
        }
        m.histograms.emplace_back(RandomName(rng), std::move(h));
      }
      return Encode(id, m);
    }
    case MessageType::kErrorReply: {
      const WireError error = kAllWireErrors[rng.NextBelow(
          sizeof(kAllWireErrors) / sizeof(kAllWireErrors[0]))];
      return EncodeError(id, error, RandomName(rng));
    }
  }
  return {};
}

// --- Mutations ----------------------------------------------------------

std::vector<uint8_t> FlipBits(std::vector<uint8_t> f, Rng& rng) {
  for (size_t i = 1 + rng.NextBelow(3); i > 0; --i) {
    const size_t bit = rng.NextBelow(f.size() * 8);
    f[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
  return f;
}

std::vector<uint8_t> Truncate(std::vector<uint8_t> f, Rng& rng) {
  f.resize(rng.NextBelow(f.size()));
  return f;
}

std::vector<uint8_t> Extend(std::vector<uint8_t> f, Rng& rng) {
  for (size_t i = 1 + rng.NextBelow(8); i > 0; --i) {
    f.push_back(static_cast<uint8_t>(rng.NextBelow(256)));
  }
  return f;
}

// Overwrites a u32 somewhere in the body, where the count and length
// fields live, with a value near or far from the original.
std::vector<uint8_t> CorruptLength(std::vector<uint8_t> f, Rng& rng) {
  if (f.size() < kHeaderBytes + 4) return FlipBits(std::move(f), rng);
  const size_t at = kHeaderBytes + rng.NextBelow(f.size() - kHeaderBytes - 3);
  uint32_t v;
  std::memcpy(&v, f.data() + at, sizeof(v));
  const uint32_t choices[] = {0u, 1u, v + 1, v - 1, v * 2, 0x7fffffffu,
                              0xffffffffu, RandomU32(rng)};
  v = choices[rng.NextBelow(sizeof(choices) / sizeof(choices[0]))];
  std::memcpy(f.data() + at, &v, sizeof(v));
  return f;
}

// Random bytes; half of them behind a valid version so they reach the
// type check, and most of those with a known type so they reach the body
// parsers.
std::vector<uint8_t> RandomBytes(Rng& rng) {
  std::vector<uint8_t> f(rng.NextBelow(64));
  for (uint8_t& b : f) b = static_cast<uint8_t>(rng.NextBelow(256));
  if (f.size() >= 3 && rng.NextBernoulli(0.5)) {
    f[0] = static_cast<uint8_t>(kWireVersion & 0xff);
    f[1] = static_cast<uint8_t>(kWireVersion >> 8);
    if (rng.NextBernoulli(0.75)) {
      f[2] = static_cast<uint8_t>(kAllMessageTypes[rng.NextBelow(
          sizeof(kAllMessageTypes) / sizeof(kAllMessageTypes[0]))]);
    }
  }
  return f;
}

// --- The property -------------------------------------------------------

std::vector<uint8_t> Reencode(const DecodedMessage& msg) {
  const uint64_t id = msg.header.request_id;
  return std::visit(
      [&](const auto& body) {
        if constexpr (std::is_same_v<std::decay_t<decltype(body)>,
                                     ErrorReply>) {
          return EncodeError(id, msg.header.error, body.message);
        } else {
          return Encode(id, body);
        }
      },
      msg.body);
}

std::string Hex(const std::vector<uint8_t>& f) {
  static const char kDigits[] = "0123456789abcdef";
  std::string s;
  for (uint8_t b : f) {
    s += kDigits[b >> 4];
    s += kDigits[b & 15];
  }
  return s;
}

struct Tally {
  int decoded = 0;
  std::map<WireError, int> rejected;
  int failures = 0;
};

void Check(const std::vector<uint8_t>& in, const char* kind, Tally& tally) {
  DecodedMessage msg;
  std::string reason;
  const WireError e = DecodeFrame(in.data(), in.size(), &msg, &reason);
  std::string failure;
  if (e == WireError::kOk) {
    ++tally.decoded;
    std::vector<uint8_t> expected = in;
    if (msg.header.type != MessageType::kErrorReply) {
      expected[3] = static_cast<uint8_t>(WireError::kOk);
    }
    if (Reencode(msg) != expected) failure = "decoded but does not round-trip";
  } else {
    ++tally.rejected[e];
    if (e != WireError::kMalformedFrame && e != WireError::kVersionMismatch &&
        e != WireError::kUnknownType) {
      failure = "unexpected error " + std::string(WireErrorName(e));
    } else if (reason.empty()) {
      failure = "rejected without a reason";
    }
  }
  if (failure.empty()) return;
  if (++tally.failures <= kMaxReported) {
    ADD_FAILURE() << kind << ": " << failure << "; input " << Hex(in);
  }
}

TEST(WireFuzzTest, MutatedValidFramesDecodeOrFailByName) {
  Rng rng(kSeed);
  Tally tally;
  for (MessageType type : kAllMessageTypes) {
    for (int f = 0; f < kFramesPerType; ++f) {
      const std::vector<uint8_t> frame = RandomFrame(type, rng);
      Check(frame, "valid", tally);
      for (int m = 0; m < kMutationsPerFrame; ++m) {
        Check(FlipBits(frame, rng), "bit flip", tally);
        Check(Truncate(frame, rng), "truncation", tally);
        Check(Extend(frame, rng), "extension", tally);
        Check(CorruptLength(frame, rng), "length corruption", tally);
      }
    }
  }
  EXPECT_EQ(tally.failures, 0);
  // The mutations reach both outcomes and every named error.
  EXPECT_GT(tally.decoded, 0);
  EXPECT_GT(tally.rejected[WireError::kMalformedFrame], 0);
  EXPECT_GT(tally.rejected[WireError::kVersionMismatch], 0);
  EXPECT_GT(tally.rejected[WireError::kUnknownType], 0);
}

TEST(WireFuzzTest, RandomBytesDecodeOrFailByName) {
  Rng rng(kSeed + 1);
  Tally tally;
  for (int i = 0; i < kRandomInputs; ++i) {
    Check(RandomBytes(rng), "random bytes", tally);
  }
  EXPECT_EQ(tally.failures, 0);
  EXPECT_GT(tally.decoded, 0);
  EXPECT_GT(tally.rejected[WireError::kMalformedFrame], 0);
  EXPECT_GT(tally.rejected[WireError::kVersionMismatch], 0);
  EXPECT_GT(tally.rejected[WireError::kUnknownType], 0);
}

}  // namespace
}  // namespace rpc
}  // namespace dgt
