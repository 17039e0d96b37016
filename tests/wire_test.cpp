#include "g2g/proto/wire.hpp"

#include <gtest/gtest.h>

#include "g2g/proto/relay/frames.hpp"

namespace g2g::proto {
namespace {

/// `sig` with byte `i` flipped.
crypto::Signature flipped(const crypto::Signature& sig, std::size_t i) {
  Bytes b(sig.view().begin(), sig.view().end());
  b[i] ^= 1;
  return crypto::Signature(b);
}

class WireTest : public ::testing::Test {
 protected:
  WireTest() : authority_(suite_, rng_) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      identities_.emplace_back(suite_, NodeId(i), authority_, rng_);
      roster_.add(identities_.back().certificate());
    }
  }

  [[nodiscard]] ProofOfRelay make_por(std::uint32_t giver, std::uint32_t taker,
                                      bool delegation = false, double fm = 0.0,
                                      double fq = 0.0, std::uint32_t dprime = 1) {
    ProofOfRelay por;
    por.h.fill(0x5a);
    por.giver = NodeId(giver);
    por.taker = NodeId(taker);
    por.at = TimePoint::from_seconds(100.0);
    por.delegation = delegation;
    por.declared_dst = NodeId(dprime);
    por.msg_quality = fm;
    por.taker_quality = fq;
    por.quality_frame = 3;
    por.taker_signature = identities_[taker].sign(por.signed_payload());
    return por;
  }

  [[nodiscard]] QualityDeclaration make_decl(std::uint32_t declarer, std::uint32_t dst,
                                             double value) {
    QualityDeclaration d;
    d.declarer = NodeId(declarer);
    d.dst = NodeId(dst);
    d.value = value;
    d.frame = 2;
    d.at = TimePoint::from_seconds(50.0);
    d.signature = identities_[declarer].sign(d.signed_payload());
    return d;
  }

  crypto::SuitePtr suite_ = crypto::make_fast_suite(0x3117e);
  Rng rng_{5};
  crypto::Authority authority_;
  std::vector<crypto::NodeIdentity> identities_;
  Roster roster_{suite_};
};

TEST_F(WireTest, PorEncodingRoundTrip) {
  const ProofOfRelay por = make_por(0, 1, true, 2.0, 5.0);
  const ProofOfRelay decoded = ProofOfRelay::decode(encode_exact(por));
  EXPECT_EQ(decoded.h, por.h);
  EXPECT_EQ(decoded.giver, por.giver);
  EXPECT_EQ(decoded.taker, por.taker);
  EXPECT_EQ(decoded.at, por.at);
  EXPECT_EQ(decoded.delegation, por.delegation);
  EXPECT_EQ(decoded.declared_dst, por.declared_dst);
  EXPECT_DOUBLE_EQ(decoded.msg_quality, por.msg_quality);
  EXPECT_DOUBLE_EQ(decoded.taker_quality, por.taker_quality);
  EXPECT_EQ(decoded.quality_frame, por.quality_frame);
  EXPECT_EQ(decoded.taker_signature, por.taker_signature);
}

TEST_F(WireTest, DeclarationEncodingRoundTrip) {
  const QualityDeclaration d = make_decl(2, 3, 7.5);
  const QualityDeclaration decoded = QualityDeclaration::decode(encode_exact(d));
  EXPECT_EQ(decoded.declarer, d.declarer);
  EXPECT_EQ(decoded.dst, d.dst);
  EXPECT_DOUBLE_EQ(decoded.value, d.value);
  EXPECT_EQ(decoded.frame, d.frame);
  EXPECT_EQ(decoded.at, d.at);
  EXPECT_EQ(decoded.signature, d.signature);
}

TEST_F(WireTest, SignedPayloadExcludesSignature) {
  ProofOfRelay por = make_por(0, 1);
  const Bytes payload = por.signed_payload();
  por.taker_signature = flipped(por.taker_signature, 0);
  EXPECT_EQ(por.signed_payload(), payload);
}

TEST_F(WireTest, RelayFailurePomVerifies) {
  ProofOfMisbehavior pom;
  pom.kind = ProofOfMisbehavior::Kind::RelayFailure;
  pom.culprit = NodeId(1);
  pom.accuser = NodeId(0);
  pom.evidence_accepted = make_por(0, 1);
  EXPECT_TRUE(verify_pom(roster_, pom));
}

TEST_F(WireTest, RelayFailurePomRejectsForgery) {
  ProofOfMisbehavior pom;
  pom.kind = ProofOfMisbehavior::Kind::RelayFailure;
  pom.culprit = NodeId(1);
  pom.accuser = NodeId(0);

  // No evidence at all.
  EXPECT_FALSE(verify_pom(roster_, pom));

  // Evidence signed by someone else (culprit mismatch).
  pom.evidence_accepted = make_por(0, 2);
  EXPECT_FALSE(verify_pom(roster_, pom));

  // Accuser was not the giver of the PoR.
  pom.evidence_accepted = make_por(3, 1);
  EXPECT_FALSE(verify_pom(roster_, pom));

  // Tampered signature.
  auto por = make_por(0, 1);
  por.taker_signature = flipped(por.taker_signature, 3);
  pom.evidence_accepted = por;
  EXPECT_FALSE(verify_pom(roster_, pom));

  // Tampered signed content (the timestamp is covered by the signature).
  por = make_por(0, 1);
  por.at = por.at + Duration::seconds(1.0);
  pom.evidence_accepted = por;
  EXPECT_FALSE(verify_pom(roster_, pom));
}

TEST_F(WireTest, QualityLiePomVerifies) {
  ProofOfMisbehavior pom;
  pom.kind = ProofOfMisbehavior::Kind::QualityLie;
  pom.culprit = NodeId(2);
  pom.accuser = NodeId(3);
  pom.evidence_declaration = make_decl(2, 3, 0.0);
  EXPECT_TRUE(verify_pom(roster_, pom));

  // Declarer mismatch.
  pom.evidence_declaration = make_decl(1, 3, 0.0);
  EXPECT_FALSE(verify_pom(roster_, pom));

  // Tampered value.
  auto decl = make_decl(2, 3, 0.0);
  decl.value = 9.0;
  pom.evidence_declaration = decl;
  EXPECT_FALSE(verify_pom(roster_, pom));
}

TEST_F(WireTest, ChainCheatPomVerifies) {
  // Node 1 accepted from node 0 at declared quality 5 (the incoming PoR,
  // signed by node 1), then forwarded claiming f_m = 0 (outgoing PoR signed
  // by node 2): the mismatch is the cheat.
  ProofOfMisbehavior pom;
  pom.kind = ProofOfMisbehavior::Kind::ChainCheat;
  pom.culprit = NodeId(1);
  pom.accuser = NodeId(0);
  pom.evidence_accepted = make_por(0, 1, true, 2.0, 5.0);   // f_AD = 5
  pom.evidence_forwarded = make_por(1, 2, true, 0.0, 7.0);  // f1_m = 0 != 5
  EXPECT_TRUE(verify_pom(roster_, pom));
}

TEST_F(WireTest, ChainCheatPomRejectsConsistentChain) {
  ProofOfMisbehavior pom;
  pom.kind = ProofOfMisbehavior::Kind::ChainCheat;
  pom.culprit = NodeId(1);
  pom.accuser = NodeId(0);
  pom.evidence_accepted = make_por(0, 1, true, 2.0, 5.0);
  pom.evidence_forwarded = make_por(1, 2, true, 5.0, 7.0);  // f1_m == f_AD: honest
  EXPECT_FALSE(verify_pom(roster_, pom));
}

TEST_F(WireTest, ChainCheatPomRejectsUnrelatedEvidence) {
  ProofOfMisbehavior pom;
  pom.kind = ProofOfMisbehavior::Kind::ChainCheat;
  pom.culprit = NodeId(1);
  pom.accuser = NodeId(0);

  // Culprit not involved in the incoming PoR.
  pom.evidence_accepted = make_por(2, 3, true, 2.0, 5.0);
  pom.evidence_forwarded = make_por(1, 2, true, 0.0, 7.0);
  EXPECT_FALSE(verify_pom(roster_, pom));

  // Different message hashes.
  auto in = make_por(0, 1, true, 2.0, 5.0);
  auto out = make_por(1, 2, true, 0.0, 7.0);
  out.h.fill(0x11);
  out.taker_signature = identities_[2].sign(out.signed_payload());
  pom.evidence_accepted = in;
  pom.evidence_forwarded = out;
  EXPECT_FALSE(verify_pom(roster_, pom));

  // Epidemic (non-delegation) PoRs carry no chain.
  pom.evidence_accepted = make_por(0, 1, false);
  pom.evidence_forwarded = make_por(1, 2, false);
  EXPECT_FALSE(verify_pom(roster_, pom));
}

TEST_F(WireTest, ChainCheatAcceptsCulpritOutgoingEstablisher) {
  // Second-hop cheat: both PoRs are outgoing PoRs of the culprit.
  ProofOfMisbehavior pom;
  pom.kind = ProofOfMisbehavior::Kind::ChainCheat;
  pom.culprit = NodeId(1);
  pom.accuser = NodeId(0);
  pom.evidence_accepted = make_por(1, 2, true, 5.0, 8.0);   // established f_m = 8
  pom.evidence_forwarded = make_por(1, 3, true, 2.0, 9.0);  // attached 2 != 8
  EXPECT_TRUE(verify_pom(roster_, pom));
}

TEST_F(WireTest, PomEncodingProducesReasonableSizes) {
  ProofOfMisbehavior pom;
  pom.kind = ProofOfMisbehavior::Kind::ChainCheat;
  pom.culprit = NodeId(1);
  pom.accuser = NodeId(0);
  pom.evidence_accepted = make_por(0, 1, true);
  pom.evidence_forwarded = make_por(1, 2, true);
  EXPECT_EQ(pom.wire_size(), encode_exact(pom).size());
  EXPECT_GT(pom.wire_size(), 2 * 64u);
  EXPECT_LT(pom.wire_size(), 1024u);
}

TEST_F(WireTest, PorWireSizeConditionalOnDelegation) {
  // Regression: epidemic PoRs must not pay for the delegation-only fields
  // (declared_dst, msg_quality, taker_quality, quality_frame). With the
  // 32-byte fast-suite signature the two shapes pin to exact sizes.
  const ProofOfRelay epidemic = make_por(0, 1, false);
  const ProofOfRelay delegation = make_por(0, 1, true, 2.0, 5.0);
  ASSERT_EQ(epidemic.taker_signature.size(), 32u);
  EXPECT_EQ(encode_exact(epidemic).size(), 85u);
  EXPECT_EQ(encode_exact(delegation).size(), 113u);
  EXPECT_EQ(encode_exact(delegation).size() - encode_exact(epidemic).size(),
            4u + 8u + 8u + 8u);
}

TEST_F(WireTest, EpidemicPorRoundTripDropsNoFields) {
  const ProofOfRelay por = make_por(2, 3, false);
  const ProofOfRelay decoded = ProofOfRelay::decode(encode_exact(por));
  EXPECT_EQ(decoded.h, por.h);
  EXPECT_EQ(decoded.giver, por.giver);
  EXPECT_EQ(decoded.taker, por.taker);
  EXPECT_EQ(decoded.at, por.at);
  EXPECT_FALSE(decoded.delegation);
  EXPECT_EQ(decoded.taker_signature, por.taker_signature);
  // Delegation-only fields come back as their defaults.
  EXPECT_EQ(decoded.declared_dst, NodeId());
  EXPECT_DOUBLE_EQ(decoded.msg_quality, 0.0);
  EXPECT_DOUBLE_EQ(decoded.taker_quality, 0.0);
  EXPECT_EQ(decoded.quality_frame, -1);
  // The signature still verifies after the round trip.
  EXPECT_TRUE(roster_.verify(NodeId(3), decoded.signed_payload(), decoded.taker_signature.view()));
}

TEST_F(WireTest, SignatureBlobsPastSixtyFourBytesThrow) {
  // A signature is a length-prefixed blob held inline in at most 64 bytes:
  // a 64-byte blob decodes, a 65-byte one is rejected by every decoder that
  // reads one, wherever it sits.
  const auto with_blob = [](std::size_t n) { return crypto::Signature(Bytes(n, 0x5c)); };
  for (const std::size_t n : {std::size_t{64}, std::size_t{65}}) {
    // No Signature holds 65 bytes, so the 65-byte blob is spliced into the
    // encoding of a 64-byte one: its length prefix, one more byte, and the
    // length of an enclosing RELAY_DATA payload.
    const auto grow = [n](Bytes wire, std::size_t blob_at, std::size_t payload_len_at = 0) {
      if (n == 64) return wire;
      wire[blob_at] = 65;
      wire.insert(wire.begin() + static_cast<std::ptrdiff_t>(blob_at + 4 + 64), 0x5c);
      if (payload_len_at != 0) ++wire[payload_len_at];
      return wire;
    };
    ProofOfRelay por = make_por(0, 1, true, 2.0, 5.0);
    por.taker_signature = with_blob(64);
    const Bytes por_wire = grow(encode_exact(por), por.wire_size() - 4 - 64);
    QualityDeclaration decl = make_decl(2, 3, 7.5);
    decl.signature = with_blob(64);
    const Bytes decl_wire = grow(encode_exact(decl), decl.wire_size() - 4 - 64);
    relay::RelayDataFrame frame;
    frame.h.fill(0x11);
    frame.attachments.push_back(decl);
    const std::size_t frame_size = frame.wire_size();
    // tag, H(m), then the u64 payload length.
    const Bytes frame_wire = grow(encode_exact(frame), frame_size - 4 - 64, 1 + 32);
    if (n == 64) {
      EXPECT_EQ(ProofOfRelay::decode(por_wire).taker_signature.size(), 64u);
      EXPECT_EQ(ProofOfRelayView::decode(por_wire).taker_signature.size(), 64u);
      EXPECT_EQ(QualityDeclaration::decode(decl_wire).signature.size(), 64u);
      EXPECT_EQ(relay::RelayDataFrame::decode(frame_wire).attachments.at(0).signature.size(), 64u);
    } else {
      EXPECT_THROW((void)ProofOfRelay::decode(por_wire), DecodeError);
      EXPECT_THROW((void)ProofOfRelayView::decode(por_wire), DecodeError);
      EXPECT_THROW((void)QualityDeclaration::decode(decl_wire), DecodeError);
      EXPECT_THROW((void)relay::RelayDataFrame::decode(frame_wire), DecodeError);
    }
  }
}

TEST_F(WireTest, PomDecodeRoundTripsAllKinds) {
  ProofOfMisbehavior relay_failure;
  relay_failure.kind = ProofOfMisbehavior::Kind::RelayFailure;
  relay_failure.culprit = NodeId(1);
  relay_failure.accuser = NodeId(0);
  relay_failure.at = TimePoint::from_seconds(123.0);
  relay_failure.evidence_accepted = make_por(0, 1);

  ProofOfMisbehavior quality_lie;
  quality_lie.kind = ProofOfMisbehavior::Kind::QualityLie;
  quality_lie.culprit = NodeId(2);
  quality_lie.accuser = NodeId(3);
  quality_lie.evidence_declaration = make_decl(2, 3, 0.0);

  ProofOfMisbehavior chain_cheat;
  chain_cheat.kind = ProofOfMisbehavior::Kind::ChainCheat;
  chain_cheat.culprit = NodeId(1);
  chain_cheat.accuser = NodeId(0);
  chain_cheat.evidence_accepted = make_por(0, 1, true, 2.0, 5.0);
  chain_cheat.evidence_forwarded = make_por(1, 2, true, 0.0, 7.0);

  for (const auto* pom : {&relay_failure, &quality_lie, &chain_cheat}) {
    const ProofOfMisbehavior decoded = ProofOfMisbehavior::decode(encode_exact(*pom));
    EXPECT_EQ(decoded.kind, pom->kind);
    EXPECT_EQ(decoded.culprit, pom->culprit);
    EXPECT_EQ(decoded.accuser, pom->accuser);
    EXPECT_EQ(decoded.at, pom->at);
    EXPECT_EQ(encode_exact(decoded), encode_exact(*pom));
    // Decoded accusations still verify: decode loses no signed material.
    EXPECT_EQ(verify_pom(roster_, decoded), verify_pom(roster_, *pom));
  }
}

TEST_F(WireTest, PomDecodeRejectsMalformedAccusations) {
  ProofOfMisbehavior pom;
  pom.kind = ProofOfMisbehavior::Kind::RelayFailure;
  pom.culprit = NodeId(1);
  pom.accuser = NodeId(0);
  pom.evidence_accepted = make_por(0, 1);
  const Bytes good = encode_exact(pom);
  ASSERT_NO_THROW((void)ProofOfMisbehavior::decode(good));

  // Unknown kind byte.
  Bytes bad = good;
  bad[0] = 3;
  EXPECT_THROW((void)ProofOfMisbehavior::decode(bad), DecodeError);

  // Evidence presence flag that is neither 0 nor 1 (offset 17: after
  // kind + culprit + accuser + at).
  bad = good;
  bad[17] = 2;
  EXPECT_THROW((void)ProofOfMisbehavior::decode(bad), DecodeError);

  // Trailing garbage.
  bad = good;
  bad.push_back(0);
  EXPECT_THROW((void)ProofOfMisbehavior::decode(bad), DecodeError);

  // Evidence shape not matching the kind: a RelayFailure accusation must
  // carry exactly the accepted PoR.
  ProofOfMisbehavior wrong_shape = pom;
  wrong_shape.evidence_declaration = make_decl(2, 3, 0.0);
  EXPECT_THROW((void)ProofOfMisbehavior::decode(encode_exact(wrong_shape)), DecodeError);

  ProofOfMisbehavior missing_evidence;
  missing_evidence.kind = ProofOfMisbehavior::Kind::ChainCheat;
  missing_evidence.culprit = NodeId(1);
  missing_evidence.accuser = NodeId(0);
  missing_evidence.evidence_accepted = make_por(0, 1, true);
  // ChainCheat without the forwarded PoR.
  EXPECT_THROW((void)ProofOfMisbehavior::decode(encode_exact(missing_evidence)), DecodeError);
}

TEST_F(WireTest, MinQualityOrdering) {
  EXPECT_EQ(min_quality(QualityKind::DestinationFrequency), 0.0);
  EXPECT_EQ(min_quality(QualityKind::DestinationLastContact), kNeverMet);
  EXPECT_LT(min_quality(QualityKind::DestinationLastContact), -1e17);
}

}  // namespace
}  // namespace g2g::proto
