// Arena + SpanWriter semantics, arena/owning encode equality, and the
// allocation-count pins for the zero-copy wire path: with warm arena chunks
// and warm roster keys, the full 5-step handshake frame-codec sequence with
// its PoR signature and check performs zero heap allocations, and so do
// building and moving an empty relay Hold, every HMAC under a prepared key,
// every sign and verify through prepared keys on both suites, a repeated
// FQ_RESP declaration signed or verified through the DeclarationMemo, and
// deriving a ChaCha key or nonce; a RELAY_DATA frame's two declarations
// decode with one allocation (this binary links g2g_alloc_probe, which
// replaces global operator new/delete with counting wrappers).
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "g2g/crypto/chacha20.hpp"
#include "g2g/crypto/hmac.hpp"
#include "g2g/crypto/identity.hpp"
#include "g2g/crypto/schnorr.hpp"
#include "g2g/crypto/sha256.hpp"
#include "g2g/proto/declaration_memo.hpp"
#include "g2g/proto/message.hpp"
#include "g2g/proto/relay/frames.hpp"
#include "g2g/proto/relay/state.hpp"
#include "g2g/proto/wire.hpp"
#include "g2g/util/alloc_probe.hpp"
#include "g2g/util/arena.hpp"
#include "g2g/util/bytes.hpp"
#include "g2g/util/rng.hpp"
#include "oracle/oracle.hpp"

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
// The borrowed-parts RELAY_DATA writer must be byte-identical to the owning
// frame encode (arena_encode against encode_exact runs for every wire type
// in tests/wire_codec_test.cpp).
// ---------------------------------------------------------------------------

struct WireFixture {
  WireFixture() : rng(7), suite(crypto::make_fast_suite(0xA110)), authority(suite, rng) {
    for (std::uint32_t i = 0; i < 2; ++i) {
      ids.emplace_back(suite, NodeId(i), authority, rng);
      roster.add(ids.back().certificate());
    }
    msg = proto::make_message(ids[0], roster, NodeId(1), MessageId(1), Bytes(64, 0x42),
                              rng);
    msg_wire = encode_exact(msg);
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
  proto::Roster roster{suite};
  proto::SealedMessage msg;
  Bytes msg_wire;
  proto::MessageHash h{};
  proto::ProofOfRelay por;
  proto::QualityDeclaration decl;
};

TEST(ArenaEncode, RelayDataBorrowedPartsMatchFrameEncode) {
  WireFixture f;
  Arena arena;
  proto::relay::RelayDataFrame frame;
  frame.h = f.h;
  frame.msg = f.msg;
  frame.attachments.push_back(f.decl);
  const Bytes owned = encode_exact(frame);
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
  // into the arena and decoded through non-owning views, with the taker's
  // PoR signature and the giver's check of it through the roster — what
  // giver_pass runs per attempt, minus the Hold materialisation.
  proto::ProofOfRelay por = f.por;
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
    // Step 4: PoR — signed payload and wire encoding both in the arena, the
    // signature held inline, the check through the taker's roster key.
    const std::span<std::uint8_t> payload = arena.alloc(por.signed_payload_size());
    SpanWriter pw(payload);
    por.signed_payload_into(pw);
    pw.expect_full();
    por.taker_signature = f.ids[1].sign(payload);
    const BytesView por_wire = arena_encode(arena, por);
    const proto::ProofOfRelayView por_view = proto::ProofOfRelayView::decode(por_wire);
    sink += por_view.taker_signature.size();
    sink += f.roster.verify(por_view.taker, payload, por_view.taker_signature) ? 1u : 0u;
    // Step 5: KEY reveal.
    proto::relay::KeyRevealFrame key;
    key.h = f.h;
    const BytesView key_wire = arena_encode(arena, key);
    sink += proto::relay::KeyRevealFrame::decode(key_wire).key[0];
    return sink;
  };

  const std::size_t first = run_once();  // warms the arena chunks and the roster key
  (void)run_once();
  const std::size_t chunks = arena.chunk_allocations();
  const std::size_t before = heap_alloc_count();
  const std::size_t again = run_once();
  EXPECT_EQ(heap_alloc_count() - before, 0u)
      << "steady-state handshake codec path hit the heap";
  EXPECT_EQ(arena.chunk_allocations(), chunks);
  EXPECT_EQ(again, first);
  EXPECT_TRUE(f.roster.verify(NodeId(1), por.signed_payload(), por.taker_signature.view()));
}

TEST(AllocPath, PreparedSignAndVerifyAllocateNothing) {
  // Every protocol signature is made through its signer's prepared key and
  // checked through the roster's prepared key for the signer: once the keys
  // exist, neither call touches the heap, on either suite.
  const crypto::SuitePtr suites[] = {
      crypto::make_fast_suite(0xA111),
      crypto::make_schnorr_rs_suite(crypto::SchnorrGroup::small_group())};
  const Bytes message(91, 0x5a);  // a delegation PoR's signed payload
  for (const crypto::SuitePtr& suite : suites) {
    Rng rng(3);
    const crypto::KeyPair kp = suite->keygen(rng);
    const crypto::SigningKeyPtr signer = suite->prepare_signing_key(kp.secret_key);
    const crypto::PublicKeyPtr key = suite->prepare_public_key(kp.public_key);
    const std::size_t before = heap_alloc_count();
    const crypto::Signature sig = signer->sign(message);
    const bool ok = key->verify(message, sig.view());
    EXPECT_EQ(heap_alloc_count() - before, 0u) << suite->name();
    EXPECT_TRUE(ok) << suite->name();
    EXPECT_EQ(sig.size(), suite->signature_size()) << suite->name();
  }
}

TEST(AllocPath, RelayDataWithTwoDeclarationsDecodesInOneAllocation) {
  // A source ships its two archived failed-candidate declarations; the
  // taker's decode counts them before it allocates their vector.
  WireFixture f;
  Arena arena;
  proto::QualityDeclaration second = f.decl;
  second.declarer = NodeId(0);
  second.value = 1.5;
  second.signature = f.ids[0].sign(second.signed_payload());
  const proto::QualityDeclaration decls[] = {f.decl, second};
  const BytesView data = proto::relay::arena_relay_data(arena, f.h, f.msg_wire, decls);
  const proto::relay::RelayDataFrameView view = proto::relay::RelayDataFrameView::decode(data);
  const std::size_t before = heap_alloc_count();
  const std::vector<proto::QualityDeclaration> out = view.decode_attachments();
  EXPECT_EQ(heap_alloc_count() - before, 1u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(encode_exact(out[0]), encode_exact(f.decl));
  EXPECT_EQ(encode_exact(out[1]), encode_exact(second));
}

TEST(AllocPath, DeclarationMemoHitsAllocateNothing) {
  // A candidate answering one giver's FQ_RQSTs about one D' reuses its
  // signature, and the giver recalls the verified declaration: neither the
  // reused sign nor the recalled verify touches the heap, on either suite.
  const crypto::SuitePtr suites[] = {
      crypto::make_fast_suite(0xA112),
      crypto::make_schnorr_rs_suite(crypto::SchnorrGroup::small_group())};
  for (const crypto::SuitePtr& suite : suites) {
    Rng rng(4);
    const crypto::Authority authority(suite, rng);
    const crypto::NodeIdentity taker(suite, NodeId(1), authority, rng);
    proto::Roster roster(suite);
    roster.add(taker.certificate());
    Arena arena;
    proto::DeclarationMemo signer(3);
    proto::DeclarationMemo giver(3);
    proto::QualityDeclaration decl;
    decl.declarer = NodeId(1);
    decl.dst = NodeId(2);
    decl.value = 4.0;
    decl.frame = 7;
    decl.at = TimePoint::from_seconds(60.0);
    ASSERT_FALSE(signer.sign(taker, decl, arena));
    ASSERT_EQ(giver.verify(roster, decl, arena), proto::DeclarationMemo::Verdict::Verified);

    proto::QualityDeclaration again = decl;
    again.signature = crypto::Signature();
    const std::size_t before = heap_alloc_count();
    const bool reused = signer.sign(taker, again, arena);
    const proto::DeclarationMemo::Verdict verdict = giver.verify(roster, again, arena);
    EXPECT_EQ(heap_alloc_count() - before, 0u) << suite->name();
    EXPECT_TRUE(reused) << suite->name();
    EXPECT_EQ(verdict, proto::DeclarationMemo::Verdict::Recalled) << suite->name();
    EXPECT_EQ(again.signature, decl.signature) << suite->name();
  }
}

TEST(AllocPath, ChaChaKeyAndNonceDerivationAllocateNothing) {
  // Every sealed box derives its ChaCha key and nonce from the DH secret;
  // the domain labels are hashed in place, not copied to the heap.
  const Bytes material(32, 0x6d);
  const crypto::Digest key_digest = crypto::sha256(to_bytes("g2g-chacha-key"), material);
  const crypto::Digest nonce_digest = crypto::sha256(to_bytes("g2g-chacha-nonce"), material);
  const std::size_t before = heap_alloc_count();
  const crypto::ChaChaKey key = crypto::derive_chacha_key(material);
  const crypto::ChaChaNonce nonce = crypto::derive_chacha_nonce(material);
  EXPECT_EQ(heap_alloc_count() - before, 0u);
  EXPECT_TRUE(std::equal(key.begin(), key.end(), key_digest.begin()));
  EXPECT_TRUE(std::equal(nonce.begin(), nonce.end(), nonce_digest.begin()));
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
  // The scalar finish, which CPUs without SHA-NI run, is pinned by name.
  const Bytes key(32, 0x4b);
  const crypto::HmacKey hmac_key(key);
  const auto [inner, outer] = oracle::hmac_midstates(key);
  const Bytes message(200, 0x5a);
  for (const std::size_t n : {0u, 49u, 63u, 91u, 200u}) {
    const BytesView m(message.data(), n);
    const std::size_t before = heap_alloc_count();
    const crypto::Digest one = hmac_key.mac(m);
    const crypto::Digest two = hmac_key.mac(m.first(n / 3), m.subspan(n / 3));
    const crypto::Digest scalar = crypto::hmac_sha256_finish_scalar(inner, outer, m, 64);
    EXPECT_EQ(heap_alloc_count() - before, 0u) << "length " << n;
    EXPECT_EQ(one, two);
    EXPECT_EQ(one, scalar);
  }
}

}  // namespace
}  // namespace g2g
