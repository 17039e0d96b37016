// Arena + SpanWriter semantics, arena/owning encode equality, and the
// allocation-count pins for the zero-copy wire path: with warm arena chunks,
// the full 5-step handshake frame-codec sequence performs zero heap
// allocations, and so do building and moving an empty relay Hold and every
// HMAC under a prepared key (this binary links g2g_alloc_probe, which
// replaces global operator new/delete with counting wrappers).
#include <gtest/gtest.h>

#include <span>

#include "g2g/crypto/fastpath.hpp"
#include "g2g/crypto/hmac.hpp"
#include "g2g/crypto/identity.hpp"
#include "g2g/proto/message.hpp"
#include "g2g/proto/relay/frames.hpp"
#include "g2g/proto/relay/state.hpp"
#include "g2g/proto/wire.hpp"
#include "g2g/util/alloc_probe.hpp"
#include "g2g/util/arena.hpp"
#include "g2g/util/bytes.hpp"
#include "g2g/util/rng.hpp"

namespace g2g {
namespace {

TEST(Arena, AllocatesDistinctSpansAndResetsInPlace) {
  Arena arena(64);
  const std::span<std::uint8_t> a = arena.alloc(10);
  const std::span<std::uint8_t> b = arena.alloc(20);
  ASSERT_EQ(a.size(), 10u);
  ASSERT_EQ(b.size(), 20u);
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(arena.bytes_in_use(), 30u);
  const std::size_t chunks = arena.chunk_allocations();
  arena.reset();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  // Warm reuse: the same demand after a reset allocates no new chunks.
  (void)arena.alloc(10);
  (void)arena.alloc(20);
  EXPECT_EQ(arena.chunk_allocations(), chunks);
}

TEST(Arena, GrowsAndKeepsCapacityAcrossReset) {
  Arena arena(16);
  (void)arena.alloc(16);
  (void)arena.alloc(100);  // exceeds the first chunk: a second one is made
  EXPECT_GE(arena.capacity(), 116u);
  EXPECT_GE(arena.chunk_allocations(), 2u);
  const std::size_t cap = arena.capacity();
  const std::size_t chunks = arena.chunk_allocations();
  arena.reset();
  EXPECT_EQ(arena.capacity(), cap);
  (void)arena.alloc(16);
  (void)arena.alloc(100);
  EXPECT_EQ(arena.chunk_allocations(), chunks);
}

TEST(SpanWriter, ProducesWriterIdenticalBytes) {
  Writer w;
  w.u8(0x7f);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.5);
  w.str("abc");
  w.blob(Bytes{9, 8, 7});
  const Bytes owned = std::move(w).take();

  Bytes out(owned.size());
  SpanWriter sw(out);
  sw.u8(0x7f);
  sw.u16(0x1234);
  sw.u32(0xdeadbeef);
  sw.u64(0x0123456789abcdefULL);
  sw.i64(-42);
  sw.f64(3.5);
  sw.str("abc");
  sw.blob(Bytes{9, 8, 7});
  sw.expect_full();
  EXPECT_EQ(out, owned);
}

TEST(SpanWriter, OverflowAndUnderfillThrowEncodeError) {
  Bytes small(4);
  SpanWriter w(small);
  EXPECT_THROW(w.u64(1), EncodeError);  // 8 bytes into a 4-byte span
  Bytes buf(8);
  SpanWriter u(buf);
  u.u32(5);
  EXPECT_THROW(u.expect_full(), EncodeError);  // 4 of 8 bytes written
}

// ---------------------------------------------------------------------------
// Arena encodes must be byte-identical to the owning encodes, and every
// encode() must fill exactly wire_size() bytes (the SpanWriter seam enforces
// it; these pins keep the two paths from drifting).
// ---------------------------------------------------------------------------

struct WireFixture {
  WireFixture() : rng(7), suite(crypto::make_fast_suite(0xA110)), authority(suite, rng) {
    for (std::uint32_t i = 0; i < 2; ++i) {
      ids.emplace_back(suite, NodeId(i), authority, rng);
      roster.add(ids.back().certificate());
    }
    msg = proto::make_message(ids[0], roster.get(NodeId(1)), MessageId(1), Bytes(64, 0x42),
                              rng);
    msg_wire = msg.encode();
    h = msg.hash();
    por.h = h;
    por.giver = NodeId(0);
    por.taker = NodeId(1);
    por.at = TimePoint::from_seconds(5.0);
    por.taker_signature = ids[1].sign(por.signed_payload());
    decl.declarer = NodeId(1);
    decl.dst = NodeId(0);
    decl.value = 2.5;
    decl.frame = 3;
    decl.at = TimePoint::from_seconds(9.0);
    decl.signature = ids[1].sign(decl.signed_payload());
  }

  Rng rng;
  crypto::SuitePtr suite;
  crypto::Authority authority;
  std::vector<crypto::NodeIdentity> ids;
  proto::Roster roster;
  proto::SealedMessage msg;
  Bytes msg_wire;
  proto::MessageHash h{};
  proto::ProofOfRelay por;
  proto::QualityDeclaration decl;
};

TEST(ArenaEncode, MatchesOwningEncodeForEveryWireType) {
  WireFixture f;
  Arena arena;
  const auto check = [&](const auto& v) {
    const Bytes owned = v.encode();
    EXPECT_EQ(owned.size(), v.wire_size());
    const BytesView b = arena_encode(arena, v);
    EXPECT_EQ(Bytes(b.begin(), b.end()), owned);
  };
  check(proto::relay::RelayRqstFrame{f.h});
  check(proto::relay::RelayOkFrame{f.h, true});
  check(proto::relay::RelayOkFrame{f.h, false});
  proto::relay::KeyRevealFrame key;
  key.h = f.h;
  key.key.fill(0x07);
  check(key);
  proto::relay::PorRqstFrame rqst;
  rqst.h = f.h;
  rqst.seed.fill(0x0B);
  check(rqst);
  proto::relay::StoredRespFrame stored;
  stored.h = f.h;
  stored.seed.fill(0x0C);
  stored.digest.fill(0x0D);
  check(stored);
  proto::relay::FqRqstFrame fq;
  fq.h = f.h;
  fq.dst = NodeId(1);
  check(fq);
  check(f.msg);
  check(f.decl);
  check(f.por);
  proto::ProofOfRelay delegated = f.por;
  delegated.delegation = true;
  delegated.declared_dst = NodeId(1);
  delegated.msg_quality = 1.5;
  delegated.taker_quality = 2.0;
  check(delegated);
  proto::ProofOfMisbehavior pom;
  pom.kind = proto::ProofOfMisbehavior::Kind::RelayFailure;
  pom.culprit = NodeId(1);
  pom.accuser = NodeId(0);
  pom.evidence_accepted = f.por;
  check(pom);
}

TEST(ArenaEncode, RelayDataBorrowedPartsMatchFrameEncode) {
  WireFixture f;
  Arena arena;
  proto::relay::RelayDataFrame frame;
  frame.h = f.h;
  frame.msg = f.msg;
  frame.attachments.push_back(f.decl);
  const Bytes owned = frame.encode();
  const std::span<const proto::QualityDeclaration> attachments(frame.attachments);
  EXPECT_EQ(proto::relay::relay_data_wire_size(f.msg_wire.size(), attachments),
            frame.wire_size());
  const BytesView b = proto::relay::arena_relay_data(arena, frame.h, f.msg_wire, attachments);
  EXPECT_EQ(Bytes(b.begin(), b.end()), owned);
}

// ---------------------------------------------------------------------------
// Allocation pins (the point of this binary).
// ---------------------------------------------------------------------------

TEST(AllocProbe, CountsOperatorNew) {
  // Sanity: the probe is actually linked — otherwise every zero-allocation
  // assertion below would pass vacuously.
  const std::size_t before = heap_alloc_count();
  auto* p = new Bytes(256, 0x11);
  delete p;
  EXPECT_GT(heap_alloc_count(), before);
}

TEST(AllocPath, SteadyStateHandshakeCodecsAllocationFree) {
  WireFixture f;
  Arena arena;

  // The exact frame-codec sequence of one 5-step relay handshake, encoded
  // into the arena and decoded through non-owning views — what giver_pass
  // runs per attempt, minus signatures and the Hold materialisation.
  const auto run_once = [&] {
    arena.reset();
    std::size_t sink = 0;
    // Step 1: RELAY_RQST.
    const BytesView rqst = arena_encode(arena, proto::relay::RelayRqstFrame{f.h});
    sink += proto::relay::RelayRqstFrame::decode(rqst).h[0];
    // Step 2: RELAY_OK.
    const BytesView ok = arena_encode(arena, proto::relay::RelayOkFrame{f.h, true});
    sink += proto::relay::RelayOkFrame::decode(ok).accept ? 1u : 0u;
    // Step 3: RELAY_DATA from the message's wire bytes; message read back as
    // a view, H(m) computed over the wire bytes without re-encoding.
    const BytesView data = proto::relay::arena_relay_data(arena, f.h, f.msg_wire, {});
    const proto::relay::RelayDataFrameView view =
        proto::relay::RelayDataFrameView::decode(data);
    sink += view.msg.hash()[0];
    sink += view.decode_attachments().size();
    // Step 4: PoR — signed payload and wire encoding both in the arena.
    const std::span<std::uint8_t> payload = arena.alloc(f.por.signed_payload_size());
    SpanWriter pw(payload);
    f.por.signed_payload_into(pw);
    pw.expect_full();
    const BytesView por_wire = arena_encode(arena, f.por);
    sink += proto::ProofOfRelayView::decode(por_wire).taker_signature.size();
    // Step 5: KEY reveal.
    proto::relay::KeyRevealFrame key;
    key.h = f.h;
    const BytesView key_wire = arena_encode(arena, key);
    sink += proto::relay::KeyRevealFrame::decode(key_wire).key[0];
    return sink;
  };

  const std::size_t first = run_once();  // warms the arena chunks
  (void)run_once();
  const std::size_t chunks = arena.chunk_allocations();
  const std::size_t before = heap_alloc_count();
  const std::size_t again = run_once();
  EXPECT_EQ(heap_alloc_count() - before, 0u)
      << "steady-state handshake codec path hit the heap";
  EXPECT_EQ(arena.chunk_allocations(), chunks);
  EXPECT_EQ(again, first);
}

TEST(AllocPath, EmptyHoldConstructsAndMovesWithoutHeap) {
  // Every generate/complete_relay builds a Hold and moves it into the hold
  // table; an Epidemic hold never fills its Delegation-only fields, so an
  // empty one must not touch the heap.
  const std::size_t before = heap_alloc_count();
  proto::relay::Hold hold;
  proto::relay::Hold moved(std::move(hold));
  EXPECT_EQ(heap_alloc_count() - before, 0u) << "an empty Hold allocated";
  EXPECT_TRUE(moved.failed_candidates.empty());
}

TEST(AllocPath, HmacKeyMacAllocatesNothing) {
  // Every FastSuite sign and verify is one mac() and every heavy-chain link
  // one mac(a, b): whole blocks are read in place, the rest goes to the stack.
  const crypto::HmacKey key(Bytes(32, 0x4b));
  const Bytes message(200, 0x5a);
  for (const bool fast : {true, false}) {
    const crypto::FastPathScope scope(fast);
    for (const std::size_t n : {0u, 49u, 63u, 91u, 200u}) {
      const BytesView m(message.data(), n);
      const std::size_t before = heap_alloc_count();
      const crypto::Digest one = key.mac(m);
      const crypto::Digest two = key.mac(m.first(n / 3), m.subspan(n / 3));
      EXPECT_EQ(heap_alloc_count() - before, 0u) << "length " << n << ", fast=" << fast;
      EXPECT_EQ(one, two);
    }
  }
}

}  // namespace
}  // namespace g2g
