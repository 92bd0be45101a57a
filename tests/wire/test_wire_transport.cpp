// Transport-level properties of the framed byte wire: checksum detection of
// in-flight damage, truncation rejection, bandwidth-dependent transmission
// delay, per-link/per-kind byte accounting, and sealed-payload opacity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/txn.hpp"
#include "crdt/counter.hpp"
#include "dc/messages.hpp"
#include "security/crypto_sim.hpp"
#include "security/sealed.hpp"
#include "sim/frame.hpp"
#include "sim/network.hpp"
#include "sim/rpc.hpp"
#include "util/codec.hpp"

namespace colony {
namespace {

struct Recorder final : sim::Actor {
  Recorder(sim::Network& net, NodeId id) : Actor(net, id) {}
  std::vector<std::pair<std::uint32_t, Bytes>> received;
  std::vector<SimTime> arrival_times;
  void handle(NodeId /*from*/, std::uint32_t kind,
              ByteView body) override {
    received.emplace_back(kind, Bytes(body.begin(), body.end()));
    arrival_times.push_back(net_.now());
  }
};

// --- frame layer ------------------------------------------------------------

TEST(WireFrame, RoundTripPreservesKindAndPayload) {
  const Bytes payload{1, 2, 3, 0xff, 0, 42};
  const Bytes frm = sim::frame::encode(proto::kPushTxn, payload);
  ASSERT_EQ(frm.size(), payload.size() + sim::frame::kOverheadBytes);
  const auto view = sim::frame::decode_view(frm);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->kind, proto::kPushTxn);
  EXPECT_EQ(Bytes(view->payload.begin(), view->payload.end()), payload);
}

TEST(WireFrame, EmptyPayloadIsPureOverhead) {
  const Bytes frm = sim::frame::encode(proto::kGroupPing, {});
  EXPECT_EQ(frm.size(), sim::frame::kOverheadBytes);
  const auto view = sim::frame::decode_view(frm);
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->payload.empty());
}

TEST(WireFrame, DetectsEveryByteFlip) {
  // A short frame, and one whose payload runs through the checksum's
  // 8-byte loop several times before its byte tail.
  Bytes long_payload(77);
  for (std::size_t i = 0; i < long_payload.size(); ++i) {
    long_payload[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  for (const Bytes& payload : {Bytes{10, 20, 30, 40, 50}, long_payload}) {
    const Bytes frm = sim::frame::encode(7, payload);
    // Flip each byte of the frame in turn — header, payload, and trailer
    // damage must all be caught: corruption surfaces as loss, never as a
    // wrong value.
    for (std::size_t i = 0; i < frm.size(); ++i) {
      Bytes damaged = frm;
      damaged[i] ^= 0x5a;
      EXPECT_FALSE(sim::frame::decode_view(damaged).has_value())
          << "flip at byte " << i << " of a " << frm.size()
          << "-byte frame went undetected";
    }
  }
}

TEST(WireFrame, RejectsTruncationAtEveryLength) {
  const Bytes frm = sim::frame::encode(7, Bytes{1, 2, 3, 4});
  for (std::size_t len = 0; len < frm.size(); ++len) {
    const Bytes prefix(frm.begin(),
                       frm.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(sim::frame::decode_view(prefix).has_value())
        << "truncation to " << len << " bytes went undetected";
  }
}

TEST(WireFrame, RejectsTrailingGarbageAndLengthMismatch) {
  Bytes frm = sim::frame::encode(7, Bytes{1, 2, 3, 4});
  frm.push_back(0);  // frame size no longer matches the length prefix
  EXPECT_FALSE(sim::frame::decode_view(frm).has_value());
}

// Known answers pin the checksum and the byte layout: a change of CRC
// algorithm or frame layout must update these on purpose.
TEST(WireFrame, Crc32KnownAnswer) {
  const std::string check = "123456789";
  const Bytes input(check.begin(), check.end());
  EXPECT_EQ(sim::frame::crc32c(input), 0xE3069283u);
  // RFC 3720 (iSCSI) appendix B.4.
  Bytes ascending(32), descending(32);
  for (std::size_t i = 0; i < 32; ++i) {
    ascending[i] = static_cast<std::uint8_t>(i);
    descending[i] = static_cast<std::uint8_t>(31 - i);
  }
  EXPECT_EQ(sim::frame::crc32c(Bytes(32, 0x00)), 0x8A9136AAu);
  EXPECT_EQ(sim::frame::crc32c(Bytes(32, 0xFF)), 0x62A8AB43u);
  EXPECT_EQ(sim::frame::crc32c(ascending), 0x46DD794Eu);
  EXPECT_EQ(sim::frame::crc32c(descending), 0x113FDB5Cu);
}

// The CRC-32C one bit at a time: the reference both checksum paths must
// match.
std::uint32_t bitwise_crc32c(ByteView data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    crc ^= byte;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) != 0 ? 0x82F63B78u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(WireFrame, ChecksumPathsAgreeAtEveryLengthAndAlignment) {
  // Past two whole three-lane stripes of the hardware path, so that every
  // stripe count up to two meets every tail length and alignment.
  constexpr std::size_t kMaxLength = std::max<std::size_t>(
      1100, 2 * 3 * sim::frame::detail::kCrc32cLaneBytes + 64);
  constexpr std::size_t kMaxOffset = 7;
  Bytes buffer(kMaxOffset + kMaxLength);
  std::uint32_t state = 0x12345678u;  // fixed seed, xorshift32
  for (std::uint8_t& byte : buffer) {
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    byte = static_cast<std::uint8_t>(state);
  }
  const sim::frame::detail::Crc32cFn hardware =
      sim::frame::detail::crc32c_hardware();
  for (std::size_t offset = 0; offset <= kMaxOffset; ++offset) {
    for (std::size_t len = 0; len <= kMaxLength; ++len) {
      const ByteView data = ByteView(buffer).subspan(offset, len);
      const std::uint32_t want = bitwise_crc32c(data);
      ASSERT_EQ(sim::frame::detail::crc32c_portable(data), want)
          << "portable path, offset " << offset << ", length " << len;
      if (hardware != nullptr) {
        ASSERT_EQ(hardware(data), want)
            << "hardware path, offset " << offset << ", length " << len;
      }
    }
  }
  if (hardware == nullptr) {
    GTEST_SKIP() << "no SSE4.2 on this CPU: only the portable path checked";
  }
}

TEST(WireFrame, GoldenFrameBytes) {
  const Bytes golden{0x07, 0x00, 0x00, 0x00,   // kind 7
                     0x04, 0x00, 0x00, 0x00,   // payload length 4
                     0x01, 0x02, 0x03, 0x04,   // payload
                     0x93, 0xdc, 0x7f, 0xfd};  // crc32c of the 12 bytes above
  EXPECT_EQ(sim::frame::encode(7, Bytes{1, 2, 3, 4}), golden);
  Bytes appended{0xee};
  sim::frame::append(appended, 7, Bytes{1, 2, 3, 4});
  EXPECT_EQ(Bytes(appended.begin() + 1, appended.end()), golden);
}

TEST(WireFrame, DecodeFrontOpensTheFirstFrameOfAStream) {
  Bytes stream = sim::frame::encode(3, Bytes{9, 9});
  sim::frame::append(stream, 4, Bytes{1, 2, 3});
  stream.push_back(0x55);  // a torn third frame
  const auto first = sim::frame::decode_front(stream);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->kind, 3u);
  EXPECT_EQ(Bytes(first->payload.begin(), first->payload.end()),
            (Bytes{9, 9}));
  const std::size_t second_at = sim::frame::kOverheadBytes + 2;
  const auto second =
      sim::frame::decode_front(ByteView(stream).subspan(second_at));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->kind, 4u);
  EXPECT_EQ(second->payload.size(), 3u);
  const std::size_t third_at = second_at + sim::frame::kOverheadBytes + 3;
  EXPECT_FALSE(
      sim::frame::decode_front(ByteView(stream).subspan(third_at)));
  // decode_view demands exactly one frame.
  EXPECT_FALSE(sim::frame::decode_view(stream).has_value());
}

// --- corruption injection ---------------------------------------------------

TEST(WireTransport, CorruptionSurfacesAsLossNeverWrongValue) {
  sim::Scheduler sched;
  sim::Network net(sched, 99);
  Recorder a(net, 1), b(net, 2);
  net.connect(1, 2, sim::LatencyModel{1 * kMillisecond, 0});

  net.set_corrupt_rate(1.0);
  const int kSends = 200;
  for (int i = 0; i < kSends; ++i) {
    net.send(1, 2, proto::kPushAck, codec::to_bytes(proto::PushAck{7}));
  }
  sched.run_all();

  EXPECT_EQ(net.messages_corrupted(), static_cast<std::uint64_t>(kSends));
  EXPECT_EQ(net.corruptions_detected(), static_cast<std::uint64_t>(kSends));
  EXPECT_GE(net.messages_dropped(), static_cast<std::uint64_t>(kSends));
  // Not one damaged frame may reach the actor: detection is all-or-nothing.
  EXPECT_TRUE(b.received.empty());
}

TEST(WireTransport, CleanFramesDeliverIntactUnderZeroRate) {
  sim::Scheduler sched;
  sim::Network net(sched, 99);
  Recorder a(net, 1), b(net, 2);
  net.connect(1, 2, sim::LatencyModel{1 * kMillisecond, 0});

  const auto msg = proto::StateUpdate{VersionVector{3, 1, 4}, 9};
  net.send(1, 2, proto::kStateUpdate, codec::to_bytes(msg));
  sched.run_all();

  EXPECT_EQ(net.messages_corrupted(), 0u);
  EXPECT_EQ(net.corruptions_detected(), 0u);
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].first, proto::kStateUpdate);
  EXPECT_EQ(codec::from_bytes<proto::StateUpdate>(b.received[0].second), msg);
}

// --- bandwidth model --------------------------------------------------------

TEST(WireTransport, TransmissionDelayChargedBySize) {
  sim::Scheduler sched;
  sim::Network net(sched, 1);
  Recorder a(net, 1), b(net, 2);
  // 1 byte/us throughput, fixed 1 ms propagation, zero jitter: a frame of
  // N bytes lands at exactly 1000 + N microseconds.
  net.connect(1, 2, sim::LatencyModel{1 * kMillisecond, 0, 0.0, 1.0});

  const Bytes payload(88, 0xab);  // frame = 88 + 12 overhead = 100 bytes
  net.send(1, 2, proto::kPushTxn, payload);
  sched.run_all();

  ASSERT_EQ(b.arrival_times.size(), 1u);
  EXPECT_EQ(b.arrival_times[0], 1000 + 100);
}

TEST(WireTransport, UnmeteredLinkChargesNoTransmissionDelay) {
  const sim::LatencyModel unmetered{1 * kMillisecond, 0, 0.0, 0.0};
  EXPECT_EQ(unmetered.transmission_delay(1'000'000), 0);
  const sim::LatencyModel metered{1 * kMillisecond, 0, 0.0, 12.5};
  // 125 bytes at 12.5 B/us = 10 us.
  EXPECT_EQ(metered.transmission_delay(125), 10);
  // Fractional transmission times round up to a whole microsecond.
  EXPECT_EQ(metered.transmission_delay(1), 1);
}

// --- wire accounting --------------------------------------------------------

TEST(WireTransport, WireStatsMeterPerLinkAndPerKind) {
  sim::Scheduler sched;
  sim::Network net(sched, 1);
  Recorder a(net, 1), b(net, 2), c(net, 3);
  net.connect(1, 2, sim::LatencyModel{1 * kMillisecond, 0});
  net.connect(1, 3, sim::LatencyModel{1 * kMillisecond, 0});

  const Bytes ack = codec::to_bytes(proto::PushAck{1});
  const std::uint64_t frame_bytes = ack.size() + sim::frame::kOverheadBytes;
  net.send(1, 2, proto::kPushAck, ack);
  net.send(1, 2, proto::kPushAck, ack);
  net.send(1, 3, proto::kDcGossip, codec::to_bytes(proto::DcGossip{}));
  sched.run_all();

  const WireStats& stats = net.wire_stats();
  EXPECT_EQ(stats.total().frames, 3u);
  EXPECT_EQ(stats.for_kind(proto::kPushAck).frames, 2u);
  EXPECT_EQ(stats.for_kind(proto::kPushAck).bytes, 2 * frame_bytes);
  EXPECT_EQ(stats.for_kind(proto::kDcGossip).frames, 1u);
  EXPECT_EQ(stats.for_link(1, 2).frames, 2u);
  EXPECT_EQ(stats.for_link(1, 3).frames, 1u);
  EXPECT_EQ(stats.for_link(2, 1).frames, 0u);  // directed accounting
}

TEST(WireTransport, RpcTrafficAggregatesUnderItsMethodKind) {
  struct Server final : sim::RpcActor {
    Server(sim::Network& net, NodeId id) : RpcActor(net, id) {}
    void on_message(NodeId, std::uint32_t, ByteView) override {}
    void on_request(NodeId, std::uint32_t, ByteView payload,
                    ReplyFn reply) override {
      reply(Bytes(payload.begin(), payload.end()));  // echo
    }
  };
  sim::Scheduler sched;
  sim::Network net(sched, 1);
  Server server(net, 1);
  struct Client final : sim::RpcActor {
    Client(sim::Network& net, NodeId id) : RpcActor(net, id) {}
    void on_message(NodeId, std::uint32_t, ByteView) override {}
    void on_request(NodeId, std::uint32_t, ByteView,
                    ReplyFn reply) override {
      reply(Error{Error::Code::kInvalidArgument, "not a server"});
    }
  };
  Client client(net, 2);
  net.connect(1, 2, sim::LatencyModel{1 * kMillisecond, 0});

  bool answered = false;
  client.call(1, proto::kShardRead,
              proto::ShardReadReq{{"b", "x"}, 0},
              [&](Result<Bytes> r) { answered = r.ok(); });
  sched.run_all();
  ASSERT_TRUE(answered);

  // Request and response each crossed the wire once; the RPC envelope flag
  // bits are stripped by the recorder, so both frames land under the
  // protocol method's kind — no phantom flagged kinds appear.
  const WireStats& stats = net.wire_stats();
  EXPECT_EQ(stats.for_kind(proto::kShardRead).frames, 2u);
  EXPECT_EQ(stats.total().frames, 2u);
  for (const auto& [kind, counter] : stats.per_kind()) {
    EXPECT_EQ(kind & ~sim::kRpcKindMask, 0u)
        << "unstripped RPC flags in per-kind accounting";
  }
}

TEST(WireTransport, DuplicateCopiesOccupyTheWire) {
  sim::Scheduler sched;
  sim::Network net(sched, 5);
  Recorder a(net, 1), b(net, 2);
  net.connect(1, 2, sim::LatencyModel{1 * kMillisecond, 0});

  net.set_duplicate_rate(1.0);
  net.send(1, 2, proto::kPushAck, codec::to_bytes(proto::PushAck{1}));
  sched.run_all();

  EXPECT_EQ(net.wire_stats().for_kind(proto::kPushAck).frames, 2u);
  EXPECT_EQ(b.received.size(), 2u);
}

// --- sealed payload opacity -------------------------------------------------

// An end-to-end sealed operation crosses the wire as ciphertext: the frame
// containing it carries the sealed bytes opaquely (the DC relays without
// decrypting), and the plaintext never appears on the wire.
TEST(WireTransport, SealedPayloadsCrossTheWireOpaquely) {
  const ObjectKey key{"secret", "doc"};
  const security::SessionKey session_key = 0xfeedfacecafebeefULL;
  const Bytes plaintext = PnCounter::prepare_add(41);
  const OpRecord sealed_op =
      security::seal_op(key, session_key, /*nonce=*/1, CrdtType::kPnCounter,
                        plaintext);
  ASSERT_EQ(sealed_op.type, CrdtType::kSealed);

  Transaction txn;
  txn.meta.dot = Dot{10, 1};
  txn.ops.push_back(sealed_op);
  const Bytes wire = codec::to_bytes(proto::PushTxn{txn, 1, std::nullopt});

  // The sealed ciphertext is embedded verbatim — a relay can forward it
  // without any cryptographic capability.
  ASSERT_FALSE(sealed_op.payload.empty());
  EXPECT_NE(std::search(wire.begin(), wire.end(), sealed_op.payload.begin(),
                        sealed_op.payload.end()),
            wire.end());

  // The plaintext operation does NOT appear anywhere in the wire bytes.
  EXPECT_EQ(std::search(wire.begin(), wire.end(), plaintext.begin(),
                        plaintext.end()),
            wire.end());

  // And the sealed op survives the hop bit-for-bit, so a keyed receiver can
  // still authenticate and decrypt it.
  const auto back = codec::from_bytes<proto::PushTxn>(wire);
  ASSERT_EQ(back.txn.ops.size(), 1u);
  EXPECT_EQ(back.txn.ops[0], sealed_op);
}

}  // namespace
}  // namespace colony
