// Protocol framing over an in-process transport.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/error.h"
#include "protocol/message.h"
#include "transport/inproc_transport.h"
#include "xdr/xdr.h"

namespace ninf::protocol {
namespace {

TEST(Message, RoundTripOverInproc) {
  auto [a, b] = transport::inprocPair();
  xdr::Encoder enc;
  enc.putString("dmmul");
  sendMessage(*a, MessageType::QueryInterface, enc.bytes());

  const Message msg = recvMessage(*b);
  EXPECT_EQ(msg.type, MessageType::QueryInterface);
  xdr::Decoder dec(msg.payload);
  EXPECT_EQ(dec.getString(), "dmmul");
}

TEST(Message, EmptyPayload) {
  auto [a, b] = transport::inprocPair();
  sendMessage(*a, MessageType::ListExecutables,
              std::span<const std::uint8_t>{});
  const Message msg = recvMessage(*b);
  EXPECT_EQ(msg.type, MessageType::ListExecutables);
  EXPECT_TRUE(msg.payload.empty());
}

TEST(Message, StreamedSendMatchesContiguousWireFormat) {
  // The scatter-gather pipeline must be byte-identical on the wire to the
  // legacy contiguous path.
  std::vector<double> big(5000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<double>(i) * 0.25 - 7.0;
  }
  xdr::Encoder streamed;
  streamed.putString("payload");
  streamed.putDoubleArrayRef(big);  // borrowed
  streamed.putU32(0xCAFEF00D);

  xdr::Encoder contiguous;
  contiguous.putString("payload");
  contiguous.putDoubleArray(big);  // copied
  contiguous.putU32(0xCAFEF00D);

  auto [a, b] = transport::inprocPair();
  sendMessage(*a, MessageType::Ping, streamed);
  const Message msg = recvMessage(*b);
  EXPECT_EQ(msg.type, MessageType::Ping);
  EXPECT_EQ(msg.payload, contiguous.bytes());
}

TEST(Message, HeaderPlusBodyReaderRoundTrip) {
  auto [a, b] = transport::inprocPair();
  std::vector<double> values(3000, 1.5);
  xdr::Encoder enc;
  enc.putU32(42);
  enc.putDoubleArrayRef(values);
  sendMessage(*a, MessageType::CallRequest, enc);

  const FrameHeader header = recvHeader(*b);
  EXPECT_EQ(header.type, MessageType::CallRequest);
  EXPECT_EQ(header.length, enc.size());
  BodyReader body(*b, header.length);
  EXPECT_EQ(body.getU32(), 42u);
  std::vector<double> out(values.size());
  body.getDoubleArrayInto(out);
  EXPECT_TRUE(body.atEnd());
  EXPECT_EQ(out, values);
}

TEST(Message, BodyReaderDrainKeepsFramingAligned) {
  auto [a, b] = transport::inprocPair();
  std::vector<double> values(2000, 3.25);
  xdr::Encoder enc;
  enc.putDoubleArrayRef(values);
  sendMessage(*a, MessageType::CallRequest, enc);
  xdr::Encoder follow;
  follow.putU32(7);
  sendMessage(*a, MessageType::Ping, follow.bytes());

  FrameHeader header = recvHeader(*b);
  BodyReader body(*b, header.length);
  body.drain();  // skip the whole call body
  const Message next = recvMessage(*b);
  EXPECT_EQ(next.type, MessageType::Ping);
  xdr::Decoder dec(next.payload);
  EXPECT_EQ(dec.getU32(), 7u);
}

TEST(Message, BodyReaderUnderflowThrowsProtocolError) {
  auto [a, b] = transport::inprocPair();
  xdr::Encoder enc;
  enc.putU32(1);
  sendMessage(*a, MessageType::CallRequest, enc.bytes());
  FrameHeader header = recvHeader(*b);
  BodyReader body(*b, header.length);
  EXPECT_EQ(body.getU32(), 1u);
  EXPECT_THROW(body.getU32(), ProtocolError);  // past the declared body
}

TEST(Message, SequencedMessagesArriveInOrder) {
  auto [a, b] = transport::inprocPair();
  for (std::uint32_t i = 0; i < 10; ++i) {
    xdr::Encoder enc;
    enc.putU32(i);
    sendMessage(*a, MessageType::Ping, enc.bytes());
  }
  for (std::uint32_t i = 0; i < 10; ++i) {
    const Message msg = recvMessage(*b);
    xdr::Decoder dec(msg.payload);
    EXPECT_EQ(dec.getU32(), i);
  }
}

TEST(Message, BadMagicRejected) {
  auto [a, b] = transport::inprocPair();
  const std::uint8_t junk[16] = {1, 2, 3, 4};
  a->sendAll(junk);
  EXPECT_THROW(recvMessage(*b), ProtocolError);
}

TEST(Message, BadVersionRejected) {
  auto [a, b] = transport::inprocPair();
  xdr::Encoder header;
  header.putU32(kMagic);
  header.putU32(kVersion + 1);
  header.putU32(static_cast<std::uint32_t>(MessageType::Ping));
  header.putU32(0);
  a->sendAll(header.bytes());
  EXPECT_THROW(recvMessage(*b), ProtocolError);
}

TEST(Message, UnknownTypeRejected) {
  auto [a, b] = transport::inprocPair();
  xdr::Encoder header;
  header.putU32(kMagic);
  header.putU32(kVersion);
  header.putU32(9999);
  header.putU32(0);
  a->sendAll(header.bytes());
  EXPECT_THROW(recvMessage(*b), ProtocolError);
}

TEST(Message, OversizedLengthRejected) {
  auto [a, b] = transport::inprocPair();
  xdr::Encoder header;
  header.putU32(kMagic);
  header.putU32(kVersion);
  header.putU32(static_cast<std::uint32_t>(MessageType::Ping));
  header.putU32(kMaxPayload + 1);
  a->sendAll(header.bytes());
  EXPECT_THROW(recvMessage(*b), ProtocolError);
}

TEST(Message, PeerCloseSurfacesAsTransportError) {
  auto [a, b] = transport::inprocPair();
  a->close();
  EXPECT_THROW(recvMessage(*b), TransportError);
}

TEST(ServerStatusInfo, RoundTrip) {
  ServerStatusInfo info;
  info.running = 3;
  info.queued = 5;
  info.completed = 123456789;
  info.load_average = 2.75;
  const ServerStatusInfo decoded = ServerStatusInfo::fromBytes(info.toBytes());
  EXPECT_EQ(decoded.running, 3u);
  EXPECT_EQ(decoded.queued, 5u);
  EXPECT_EQ(decoded.completed, 123456789u);
  EXPECT_DOUBLE_EQ(decoded.load_average, 2.75);
}


// ---- one frame codec, every wire mode ---------------------------------

std::uint32_t wordAt(std::span<const std::uint8_t> bytes, std::size_t off) {
  return static_cast<std::uint32_t>(bytes[off]) << 24 |
         static_cast<std::uint32_t>(bytes[off + 1]) << 16 |
         static_cast<std::uint32_t>(bytes[off + 2]) << 8 |
         static_cast<std::uint32_t>(bytes[off + 3]);
}

std::uint64_t wideAt(std::span<const std::uint8_t> bytes, std::size_t off) {
  return static_cast<std::uint64_t>(wordAt(bytes, off)) << 32 |
         wordAt(bytes, off + 4);
}

/// Every wire mode through the same send, flatten and read paths.  The
/// body borrows a double array larger than the encoder's byteswap
/// scratch, so the streamed send leaves in more than one chunk.
class FrameCodec : public ::testing::TestWithParam<WireMode> {
 protected:
  static constexpr std::uint64_t kCallId = 0x0123456789ABCDEFull;
  static constexpr WireTraceContext kTrace{0x1111222233334444ull,
                                           0x5555666677778888ull};

  FrameCodec() : doubles_(3 * xdr::Encoder::kScratchBytes / 8 + 5) {
    for (std::size_t i = 0; i < doubles_.size(); ++i) {
      doubles_[i] = static_cast<double>(i) * 0.5 - 3.0;
    }
    body_.putString("codec");
    body_.putDoubleArrayRef(doubles_);  // borrowed
    body_.putU32(0xCAFEF00D);
  }

  WireMode mode() const { return GetParam(); }
  bool hasCallId() const { return mode() != WireMode::V1; }
  bool traced() const { return mode() == WireMode::V2Traced; }

  common::PooledBuffer flattened() const {
    return flattenFramePooled(mode(), MessageType::CallRequest, kCallId,
                              kTrace, body_);
  }

  /// Header fields a reader in mode() must recover from the frame.
  void expectHeader(const FrameHeader& h) const {
    EXPECT_EQ(h.type, MessageType::CallRequest);
    EXPECT_EQ(h.length, body_.size());
    EXPECT_EQ(h.call_id, hasCallId() ? kCallId : 0u);
    EXPECT_EQ(h.trace.trace_id, traced() ? kTrace.trace_id : 0u);
    EXPECT_EQ(h.trace.parent_span, traced() ? kTrace.parent_span : 0u);
  }

  void expectBody(xdr::Source& body) const {
    EXPECT_EQ(body.getString(), "codec");
    std::vector<double> out(doubles_.size());
    body.getDoubleArrayInto(out);
    EXPECT_EQ(out, doubles_);
    EXPECT_EQ(body.getU32(), 0xCAFEF00Du);
    EXPECT_TRUE(body.atEnd());
  }

  std::vector<double> doubles_;
  xdr::Encoder body_;
};

TEST_P(FrameCodec, StreamedSendMatchesPooledFlatten) {
  ASSERT_GT(body_.size(), xdr::Encoder::kScratchBytes);
  const common::PooledBuffer want = flattened();
  auto [a, b] = transport::inprocPair();
  std::thread sender([&, &a = a] {
    sendMessage(*a, MessageType::CallRequest, body_, mode(), kCallId, kTrace);
  });
  std::vector<std::uint8_t> got(want.size());
  b->recvAll(got);
  sender.join();
  EXPECT_TRUE(std::equal(got.begin(), got.end(), want.span().begin(),
                         want.span().end()));
}

TEST_P(FrameCodec, HeaderFieldsSitAtDocumentedOffsets) {
  const common::PooledBuffer frame = flattened();
  const std::span<const std::uint8_t> bytes = frame.span();
  ASSERT_EQ(bytes.size(), headerBytes(mode()) + body_.size());
  EXPECT_EQ(wordAt(bytes, 0), kMagic);
  EXPECT_EQ(wordAt(bytes, 4), hasCallId() ? kVersion2 : kVersion);
  EXPECT_EQ(wordAt(bytes, 8),
            static_cast<std::uint32_t>(MessageType::CallRequest));
  EXPECT_EQ(wordAt(bytes, 12), body_.size());
  if (hasCallId()) {
    EXPECT_EQ(wideAt(bytes, 16), kCallId);
  }
  if (traced()) {
    EXPECT_EQ(wideAt(bytes, 24), kTrace.trace_id);
    EXPECT_EQ(wideAt(bytes, 32), kTrace.parent_span);
  }
  // The body starts right after the header, whatever the mode.
  EXPECT_EQ(wordAt(bytes, headerBytes(mode())), 5u);  // strlen("codec")
}

TEST_P(FrameCodec, BlockingReaderAndAssemblerRecoverTheSameFrame) {
  auto [a, b] = transport::inprocPair();
  std::thread sender([&, &a = a] {
    sendMessage(*a, MessageType::CallRequest, body_, mode(), kCallId, kTrace);
  });
  const FrameHeader blocking = recvHeader(*b, mode());
  expectHeader(blocking);
  BodyReader reader(*b, blocking.length);
  expectBody(reader);
  sender.join();

  FrameAssembler assembler("codec");
  assembler.setMode(mode());
  const common::PooledBuffer frame = flattened();
  const std::span<const std::uint8_t> bytes = frame.span();
  std::optional<Frame> popped;
  for (std::size_t off = 0; off < bytes.size() && !popped; off += 4093) {
    assembler.feed(bytes.subspan(off, std::min<std::size_t>(
                                          4093, bytes.size() - off)));
    popped = assembler.next();
  }
  ASSERT_TRUE(popped.has_value());
  expectHeader(popped->header);
  EXPECT_EQ(assembler.buffered(), 0u);
  xdr::Decoder decoder(popped->body.span());
  expectBody(decoder);
}

TEST_P(FrameCodec, FrameReadInTheOtherLayoutIsAProtocolError) {
  // v1 frames read as v2, and v2 frames (traced or not) read as v1.
  const WireMode other = hasCallId() ? WireMode::V1 : WireMode::V2;
  const common::PooledBuffer frame = flattened();
  auto [a, b] = transport::inprocPair();
  a->sendAll(frame.span().first(kHeaderBytesV2Traced));
  EXPECT_THROW(recvHeader(*b, other), ProtocolError);

  FrameAssembler assembler("codec");
  assembler.setMode(other);
  assembler.feed(frame.span());
  EXPECT_THROW(assembler.next(), ProtocolError);
}

INSTANTIATE_TEST_SUITE_P(WireModes, FrameCodec,
                         ::testing::Values(WireMode::V1, WireMode::V2,
                                           WireMode::V2Traced),
                         [](const ::testing::TestParamInfo<WireMode>& p) {
                           switch (p.param) {
                             case WireMode::V1: return "V1";
                             case WireMode::V2: return "V2";
                             case WireMode::V2Traced: break;
                           }
                           return "V2Traced";
                         });

}  // namespace
}  // namespace ninf::protocol
