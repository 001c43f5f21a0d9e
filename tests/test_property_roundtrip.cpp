// Property tests: randomized interface/argument round-trips through the
// full marshalling stack, and robustness of every decoder against
// corrupted bytes (must throw ninf errors, never crash or accept).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "idl/interface_info.h"
#include "protocol/call_marshal.h"
#include "protocol/message.h"
#include "transport/inproc_transport.h"
#include "xdr/xdr.h"

namespace ninf {
namespace {

using idl::ExprProgram;
using idl::InterfaceInfo;
using idl::Mode;
using idl::Param;
using idl::ScalarType;
using protocol::ArgValue;

/// Build a random but valid interface: a leading scalar size parameter
/// plus a random mix of scalars and n-sized arrays.
InterfaceInfo randomInterface(SplitMix64& rng) {
  InterfaceInfo info;
  info.name = "f" + std::to_string(rng.nextBelow(1000000));
  info.call_language = "C";
  info.call_target = "target";
  Param n;
  n.name = "n";
  n.mode = Mode::In;
  n.type = ScalarType::Long;
  info.params.push_back(n);
  const std::size_t extra = 1 + rng.nextBelow(6);
  for (std::size_t i = 0; i < extra; ++i) {
    Param p;
    p.name = "p" + std::to_string(i);
    const auto kind = rng.nextBelow(5);
    switch (kind) {
      case 0:
        p.mode = Mode::In;
        p.type = rng.nextBool(0.5) ? ScalarType::Int : ScalarType::Double;
        break;
      case 1:
        p.mode = Mode::Out;
        p.type = rng.nextBool(0.5) ? ScalarType::Long : ScalarType::Double;
        break;
      case 2:  // input array of n elements
        p.mode = Mode::In;
        p.type = ScalarType::Double;
        p.dims.push_back(ExprProgram::argument(0));
        break;
      case 3:  // output array of n+2 elements
        p.mode = Mode::Out;
        p.type = ScalarType::Double;
        p.dims.push_back(ExprProgram(
            {{idl::Op::PushArg, 0}, {idl::Op::PushConst, 2},
             {idl::Op::Add, 0}}));
        break;
      default:  // inout array of n elements
        p.mode = Mode::InOut;
        p.type = ScalarType::Double;
        p.dims.push_back(ExprProgram::argument(0));
        break;
    }
    info.params.push_back(p);
  }
  for (std::uint32_t i = 0;
       i < static_cast<std::uint32_t>(info.params.size()); ++i) {
    info.call_arg_order.push_back(i);
  }
  return info;
}

class MarshalPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MarshalPropertyTest, RandomInterfaceFullRoundTrip) {
  SplitMix64 rng(GetParam());
  for (int iteration = 0; iteration < 20; ++iteration) {
    const InterfaceInfo info = randomInterface(rng);
    ASSERT_TRUE(info.validate());
    // Interface itself must round-trip through XDR.
    ASSERT_EQ(InterfaceInfo::fromBytes(info.toBytes()), info);

    const std::int64_t n = 1 + static_cast<std::int64_t>(rng.nextBelow(9));
    // Build matching arguments and remember expected outputs.
    std::vector<ArgValue> args;
    std::vector<std::unique_ptr<std::vector<double>>> arrays;
    std::vector<std::unique_ptr<std::int64_t>> int_sinks;
    std::vector<std::unique_ptr<double>> dbl_sinks;
    const std::vector<std::int64_t> scalars = [&] {
      std::vector<std::int64_t> s(info.params.size(), 0);
      s[0] = n;
      return s;
    }();
    args.push_back(ArgValue::inInt(n));
    for (std::size_t i = 1; i < info.params.size(); ++i) {
      const Param& p = info.params[i];
      if (p.isScalar()) {
        const bool integral =
            p.type == ScalarType::Int || p.type == ScalarType::Long;
        if (p.mode == Mode::Out) {
          if (integral) {
            int_sinks.push_back(std::make_unique<std::int64_t>(0));
            args.push_back(ArgValue::outInt(int_sinks.back().get()));
          } else {
            dbl_sinks.push_back(std::make_unique<double>(0));
            args.push_back(ArgValue::outDouble(dbl_sinks.back().get()));
          }
        } else if (integral) {
          args.push_back(
              ArgValue::inInt(static_cast<std::int64_t>(rng.nextBelow(100))));
        } else {
          args.push_back(ArgValue::inDouble(rng.nextDouble() * 10 - 5));
        }
        continue;
      }
      const std::size_t count =
          static_cast<std::size_t>(p.elementCount(scalars));
      arrays.push_back(std::make_unique<std::vector<double>>(count));
      for (double& v : *arrays.back()) v = rng.nextDouble() * 2 - 1;
      switch (p.mode) {
        case Mode::In:
          args.push_back(ArgValue::inArray(*arrays.back()));
          break;
        case Mode::Out:
          args.push_back(ArgValue::outArray(*arrays.back()));
          break;
        case Mode::InOut:
          args.push_back(ArgValue::inoutArray(*arrays.back()));
          break;
      }
    }

    // Client -> server.
    const auto request = protocol::encodeCallRequest(info, args);
    xdr::Decoder dec(request);
    ASSERT_EQ(dec.getString(), info.name);
    auto data = protocol::decodeCallArgs(info, dec);

    // "Execute": negate every outbound array, set scalars to markers.
    for (std::size_t i = 0; i < info.params.size(); ++i) {
      const Param& p = info.params[i];
      if (!p.shippedOut()) continue;
      if (p.isScalar()) {
        data.scalar_ints[i] = 4242;
        data.scalar_doubles[i] = 42.25;
      } else {
        for (std::size_t j = 0; j < data.arrays[i].size(); ++j) {
          data.arrays[i][j] = -static_cast<double>(j) - 1.0;
        }
      }
    }
    const auto reply = protocol::encodeCallReply(info, data, {});
    protocol::decodeCallReply(info, reply, args);

    // Check every output landed in caller memory.
    std::size_t array_idx = 0;
    for (std::size_t i = 1; i < info.params.size(); ++i) {
      const Param& p = info.params[i];
      if (p.isScalar()) continue;
      const auto& buf = *arrays[array_idx++];
      if (!p.shippedOut()) continue;
      for (std::size_t j = 0; j < buf.size(); ++j) {
        ASSERT_DOUBLE_EQ(buf[j], -static_cast<double>(j) - 1.0);
      }
    }
    for (const auto& sink : int_sinks) ASSERT_EQ(*sink, 4242);
    for (const auto& sink : dbl_sinks) ASSERT_DOUBLE_EQ(*sink, 42.25);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MarshalPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 101, 202, 303));

class FuzzDecodeTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzDecodeTest, RandomBytesNeverCrashDecoders) {
  SplitMix64 rng(GetParam());
  for (int iteration = 0; iteration < 200; ++iteration) {
    std::vector<std::uint8_t> junk(rng.nextBelow(200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.nextBelow(256));
    // InterfaceInfo decoder.
    try {
      idl::InterfaceInfo::fromBytes(junk);
    } catch (const Error&) {
    }
    // ExprProgram decoder.
    try {
      xdr::Decoder dec(junk);
      idl::ExprProgram::decode(dec);
    } catch (const Error&) {
    }
    // Message framing (feed junk through a pipe).
    try {
      auto [a, b] = transport::inprocPair();
      a->sendAll(junk);
      a->shutdownSend();
      protocol::recvMessage(*b);
    } catch (const Error&) {
    }
  }
  SUCCEED();
}

TEST_P(FuzzDecodeTest, CorruptedValidPayloadsThrowDontCrash) {
  SplitMix64 rng(GetParam() ^ 0x5555);
  // Start from a valid encoded interface, then flip random bytes.
  SplitMix64 gen(7);
  const InterfaceInfo info = randomInterface(gen);
  const auto good = info.toBytes();
  for (int iteration = 0; iteration < 200; ++iteration) {
    auto bytes = good;
    const std::size_t flips = 1 + rng.nextBelow(8);
    for (std::size_t f = 0; f < flips; ++f) {
      bytes[rng.nextBelow(bytes.size())] ^=
          static_cast<std::uint8_t>(1 + rng.nextBelow(255));
    }
    try {
      const auto decoded = InterfaceInfo::fromBytes(bytes);
      // If it decoded, it must at least be structurally valid.
      EXPECT_TRUE(decoded.validate());
    } catch (const Error&) {
      // Expected for most corruptions.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDecodeTest,
                         ::testing::Values(11, 22, 33, 44));

/// `encoded` placed at an odd `offset` inside a larger buffer with junk on
/// both sides, so every 8-byte word the decoder reads is misaligned.
std::vector<std::uint8_t> embedAt(const std::vector<std::uint8_t>& encoded,
                                  std::size_t offset) {
  std::vector<std::uint8_t> buffer(offset + encoded.size() + 5, 0xA5);
  std::copy(encoded.begin(), encoded.end(), buffer.begin() + offset);
  return buffer;
}

std::vector<std::uint64_t> bitsOf(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits;
  for (double v : values) bits.push_back(std::bit_cast<std::uint64_t>(v));
  return bits;
}

TEST(XdrWordProperty, DoubleArraysRoundTripFromMisalignedSource) {
  SplitMix64 rng(0xd0b1e);
  for (std::size_t n = 0; n <= 33; ++n) {
    // Raw 64-bit patterns: every sign, exponent and NaN payload is fair.
    std::vector<double> values(n);
    for (double& v : values) v = std::bit_cast<double>(rng.next());
    xdr::Encoder owned;
    owned.putDoubleArray(values);
    xdr::Encoder borrowed;
    borrowed.putDoubleArrayRef(values);
    const std::vector<std::uint8_t> encoded = owned.take();
    ASSERT_EQ(borrowed.take(), encoded) << "n=" << n;

    for (std::size_t offset : {1u, 3u, 5u, 7u}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " offset=" + std::to_string(offset));
      const auto buffer = embedAt(encoded, offset);
      const std::span<const std::uint8_t> window(buffer.data() + offset,
                                                 encoded.size());
      xdr::Decoder whole(window);
      EXPECT_EQ(bitsOf(whole.getDoubleArray()), bitsOf(values));
      EXPECT_TRUE(whole.atEnd());

      xdr::Decoder into(window);
      std::vector<double> out(n, 42.0);
      into.getDoubleArrayInto(out);
      EXPECT_EQ(bitsOf(out), bitsOf(values));
      EXPECT_TRUE(into.atEnd());
    }
  }
}

TEST(XdrWordProperty, SpecialDoublesSurviveBitExact) {
  const std::vector<std::uint64_t> patterns = {
      0x7ff8000000000000ull,  // quiet NaN
      0x7ff8deadbeef0001ull,  // quiet NaN with a payload
      0x7ff0000000000001ull,  // signalling NaN
      0xfff4000000000abcull,  // negative signalling NaN with a payload
      0x8000000000000000ull,  // -0.0
      0x0000000000000001ull,  // smallest denormal
      0x000fffffffffffffull,  // largest denormal
      0x800fffffffffffffull,  // negative denormal
      0x7ff0000000000000ull,  // +inf
      0xfff0000000000000ull,  // -inf
  };
  std::vector<double> values;
  for (std::uint64_t bits : patterns) {
    values.push_back(std::bit_cast<double>(bits));
  }

  xdr::Encoder enc;
  enc.putDoubleArray(values);
  for (double v : values) enc.putDouble(v);
  const std::vector<std::uint8_t> encoded = enc.take();
  // On the wire each value is its binary64 pattern, most significant
  // byte first, after the 4-byte count.
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    for (std::size_t b = 0; b < 8; ++b) {
      EXPECT_EQ(encoded[4 + 8 * i + b],
                static_cast<std::uint8_t>(patterns[i] >> (56 - 8 * b)))
          << "value " << i << " byte " << b;
    }
  }

  const auto buffer = embedAt(encoded, 3);
  xdr::Decoder dec({buffer.data() + 3, encoded.size()});
  EXPECT_EQ(bitsOf(dec.getDoubleArray()), patterns);
  for (std::uint64_t bits : patterns) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(dec.getDouble()), bits);
  }
  EXPECT_TRUE(dec.atEnd());
}

TEST(XdrWordProperty, I64ArraysWithNegativesRoundTripFromMisalignedSource) {
  SplitMix64 rng(0x164);
  for (std::size_t n = 0; n <= 33; ++n) {
    std::vector<std::int64_t> values(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto magnitude = static_cast<std::int64_t>(rng.next() >> 1);
      values[i] = i % 2 == 0 ? -magnitude : magnitude;
    }
    if (n >= 3) {
      values[0] = std::numeric_limits<std::int64_t>::min();
      values[1] = -1;
      values[2] = std::numeric_limits<std::int64_t>::max();
    }
    xdr::Encoder enc;
    enc.putI64Array(values);
    for (std::int64_t v : values) enc.putI64(v);
    const std::vector<std::uint8_t> encoded = enc.take();

    for (std::size_t offset : {1u, 5u}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " offset=" + std::to_string(offset));
      const auto buffer = embedAt(encoded, offset);
      xdr::Decoder dec({buffer.data() + offset, encoded.size()});
      EXPECT_EQ(dec.getI64Array(), values);
      for (std::int64_t v : values) EXPECT_EQ(dec.getI64(), v);
      EXPECT_TRUE(dec.atEnd());
    }
  }
}

}  // namespace
}  // namespace ninf
