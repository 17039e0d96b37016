// Robustness of every decoder against malformed input: random bytes and
// random truncations/mutations of valid encodings must either decode or
// throw DecodeError — never crash, hang, or read out of bounds.
#include <gtest/gtest.h>

#include "g2g/crypto/identity.hpp"
#include "g2g/crypto/schnorr.hpp"
#include "g2g/proto/message.hpp"
#include "g2g/proto/relay/frames.hpp"
#include "g2g/proto/wire.hpp"
#include "g2g/util/rng.hpp"

namespace g2g {
namespace {

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

template <typename Decode>
void expect_no_crash(Rng& rng, Decode&& decode, int rounds = 300) {
  for (int i = 0; i < rounds; ++i) {
    const Bytes junk = random_bytes(rng, rng.below(200));
    try {
      decode(junk);
    } catch (const DecodeError&) {
      // expected for malformed input
    }
  }
}

TEST(FuzzDecode, ProofOfRelaySurvivesJunk) {
  Rng rng(101);
  expect_no_crash(rng, [](const Bytes& b) { (void)proto::ProofOfRelay::decode(b); });
}

TEST(FuzzDecode, QualityDeclarationSurvivesJunk) {
  Rng rng(102);
  expect_no_crash(rng, [](const Bytes& b) { (void)proto::QualityDeclaration::decode(b); });
}

TEST(FuzzDecode, SealedMessageSurvivesJunk) {
  Rng rng(103);
  expect_no_crash(rng, [](const Bytes& b) { (void)proto::SealedMessage::decode(b); });
}

TEST(FuzzDecode, CertificateSurvivesJunk) {
  Rng rng(104);
  expect_no_crash(rng, [](const Bytes& b) { (void)crypto::Certificate::decode(b); });
}

TEST(FuzzDecode, SchnorrSignatureSurvivesJunk) {
  Rng rng(105);
  expect_no_crash(rng, [](const Bytes& b) { (void)crypto::SchnorrSignature::decode(b); });
}

TEST(FuzzDecode, TruncationsOfValidEncodings) {
  Rng rng(106);
  proto::ProofOfRelay por;
  por.h.fill(0x7c);
  por.giver = NodeId(1);
  por.taker = NodeId(2);
  por.delegation = true;
  por.taker_signature = random_bytes(rng, 64);
  const Bytes valid = por.encode();
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    const Bytes truncated(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)proto::ProofOfRelay::decode(truncated), DecodeError) << cut;
  }
  // The full encoding round-trips.
  const proto::ProofOfRelay decoded = proto::ProofOfRelay::decode(valid);
  EXPECT_EQ(decoded.h, por.h);
}

TEST(FuzzDecode, SingleByteMutationsNeverCrash) {
  Rng rng(107);
  proto::QualityDeclaration decl;
  decl.declarer = NodeId(3);
  decl.dst = NodeId(4);
  decl.value = 7.0;
  decl.frame = 2;
  decl.at = TimePoint::from_seconds(10.0);
  decl.signature = random_bytes(rng, 32);
  const Bytes valid = decl.encode();
  for (std::size_t i = 0; i < valid.size(); ++i) {
    for (const std::uint8_t flip : {0x01, 0x80, 0xff}) {
      Bytes mutated = valid;
      mutated[i] ^= flip;
      try {
        (void)proto::QualityDeclaration::decode(mutated);
      } catch (const DecodeError&) {
      }
    }
  }
}

TEST(FuzzDecode, ProofOfMisbehaviorSurvivesJunk) {
  Rng rng(110);
  expect_no_crash(rng, [](const Bytes& b) { (void)proto::ProofOfMisbehavior::decode(b); });
}

TEST(FuzzDecode, SchnorrRsSignatureSurvivesJunk) {
  Rng rng(111);
  expect_no_crash(rng, [](const Bytes& b) { (void)crypto::SchnorrSignatureRS::decode(b); });
}

TEST(FuzzDecode, PomTruncationsAndMutationsNeverCrash) {
  Rng rng(112);
  proto::ProofOfMisbehavior pom;
  pom.kind = proto::ProofOfMisbehavior::Kind::ChainCheat;
  pom.culprit = NodeId(1);
  pom.accuser = NodeId(0);
  proto::ProofOfRelay por;
  por.h.fill(0x2e);
  por.giver = NodeId(0);
  por.taker = NodeId(1);
  por.delegation = true;
  por.taker_signature = random_bytes(rng, 32);
  pom.evidence_accepted = por;
  por.giver = NodeId(1);
  por.taker = NodeId(2);
  pom.evidence_forwarded = por;
  const Bytes valid = pom.encode();
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    const Bytes truncated(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)proto::ProofOfMisbehavior::decode(truncated), DecodeError) << cut;
  }
  for (std::size_t i = 0; i < valid.size(); ++i) {
    for (const std::uint8_t flip : {0x01, 0x80, 0xff}) {
      Bytes mutated = valid;
      mutated[i] ^= flip;
      try {
        (void)proto::ProofOfMisbehavior::decode(mutated);
      } catch (const DecodeError&) {
      }
    }
  }
  // The untouched encoding round-trips.
  EXPECT_EQ(proto::ProofOfMisbehavior::decode(valid).encode(), valid);
}

TEST(FuzzDecode, EpidemicPorTruncationsNeverCrash) {
  // The non-delegation encoding omits the delegation-only fields; every
  // prefix must still be rejected cleanly.
  Rng rng(113);
  proto::ProofOfRelay por;
  por.h.fill(0x4b);
  por.giver = NodeId(5);
  por.taker = NodeId(6);
  por.delegation = false;
  por.taker_signature = random_bytes(rng, 32);
  const Bytes valid = por.encode();
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    const Bytes truncated(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)proto::ProofOfRelay::decode(truncated), DecodeError) << cut;
  }
  EXPECT_EQ(proto::ProofOfRelay::decode(valid).encode(), valid);
}

TEST(FuzzDecode, VerifyPomOnRandomEvidenceNeverAccepts) {
  // Random evidence must never produce a verifiable PoM (only properly
  // signed evidence does).
  Rng rng(108);
  const crypto::SuitePtr suite = crypto::make_fast_suite(0xF077);
  crypto::Authority authority(suite, rng);
  proto::Roster roster;
  std::vector<crypto::NodeIdentity> ids;
  for (std::uint32_t i = 0; i < 3; ++i) {
    ids.emplace_back(suite, NodeId(i), authority, rng);
    roster.add(ids.back().certificate());
  }
  for (int round = 0; round < 100; ++round) {
    proto::ProofOfMisbehavior pom;
    pom.kind = static_cast<proto::ProofOfMisbehavior::Kind>(rng.below(3));
    pom.culprit = NodeId(static_cast<std::uint32_t>(rng.below(3)));
    pom.accuser = NodeId(static_cast<std::uint32_t>(rng.below(3)));
    proto::ProofOfRelay por;
    por.giver = pom.accuser;
    por.taker = pom.culprit;
    por.delegation = true;
    por.taker_signature = random_bytes(rng, 32);  // junk signature
    pom.evidence_accepted = por;
    pom.evidence_forwarded = por;
    proto::QualityDeclaration decl;
    decl.declarer = pom.culprit;
    decl.signature = random_bytes(rng, 32);
    pom.evidence_declaration = decl;
    EXPECT_FALSE(proto::verify_pom(*suite, roster, pom));
  }
}

TEST(FuzzDecode, RelayFramesSurviveJunk) {
  // Every handshake/audit frame decoder of the relay core against random
  // bytes: decode or DecodeError, nothing else.
  Rng rng(114);
  expect_no_crash(rng, [](const Bytes& b) { (void)proto::relay::RelayRqstFrame::decode(b); });
  expect_no_crash(rng, [](const Bytes& b) { (void)proto::relay::RelayOkFrame::decode(b); });
  expect_no_crash(rng, [](const Bytes& b) { (void)proto::relay::RelayDataFrame::decode(b); });
  expect_no_crash(rng, [](const Bytes& b) { (void)proto::relay::KeyRevealFrame::decode(b); });
  expect_no_crash(rng, [](const Bytes& b) { (void)proto::relay::PorRqstFrame::decode(b); });
  expect_no_crash(rng, [](const Bytes& b) { (void)proto::relay::StoredRespFrame::decode(b); });
  expect_no_crash(rng, [](const Bytes& b) { (void)proto::relay::FqRqstFrame::decode(b); });
}

TEST(FuzzDecode, FixedSizeFrameTruncationsNeverCrash) {
  proto::relay::PorRqstFrame rqst;
  rqst.h.fill(0x31);
  rqst.seed.fill(0x9d);
  proto::relay::StoredRespFrame stored;
  stored.h.fill(0x32);
  stored.seed.fill(0x9e);
  stored.digest.fill(0x9f);
  proto::relay::FqRqstFrame fq;
  fq.h.fill(0x33);
  fq.dst = NodeId(12);
  const Bytes encodings[] = {proto::relay::RelayRqstFrame{rqst.h}.encode(),
                             proto::relay::RelayOkFrame{rqst.h, false}.encode(),
                             proto::relay::KeyRevealFrame{rqst.h, {}}.encode(),
                             rqst.encode(), stored.encode(), fq.encode()};
  const auto decoders = {
      +[](const Bytes& b) { (void)proto::relay::RelayRqstFrame::decode(b); },
      +[](const Bytes& b) { (void)proto::relay::RelayOkFrame::decode(b); },
      +[](const Bytes& b) { (void)proto::relay::KeyRevealFrame::decode(b); },
      +[](const Bytes& b) { (void)proto::relay::PorRqstFrame::decode(b); },
      +[](const Bytes& b) { (void)proto::relay::StoredRespFrame::decode(b); },
      +[](const Bytes& b) { (void)proto::relay::FqRqstFrame::decode(b); }};
  std::size_t which = 0;
  for (const auto& decode : decoders) {
    const Bytes& valid = encodings[which++];
    for (std::size_t cut = 0; cut < valid.size(); ++cut) {
      const Bytes truncated(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(cut));
      EXPECT_THROW(decode(truncated), DecodeError) << which - 1 << ":" << cut;
    }
  }
}

TEST(FuzzDecode, RelayDataFrameTruncationsAndMutationsNeverCrash) {
  // The only variable-length frame: inner length prefix plus self-delimiting
  // message and declaration encodings. Every truncation must throw; every
  // single-byte mutation must decode or throw.
  Rng rng(115);
  const crypto::SuitePtr suite = crypto::make_fast_suite(0xF115);
  crypto::Authority authority(suite, rng);
  proto::Roster roster;
  std::vector<crypto::NodeIdentity> ids;
  for (std::uint32_t i = 0; i < 2; ++i) {
    ids.emplace_back(suite, NodeId(i), authority, rng);
    roster.add(ids.back().certificate());
  }
  proto::relay::RelayDataFrame frame;
  frame.msg = proto::make_message(ids[0], roster.get(NodeId(1)), MessageId(9),
                                  random_bytes(rng, 24), rng);
  frame.h = frame.msg.hash();
  proto::QualityDeclaration decl;
  decl.declarer = NodeId(1);
  decl.dst = NodeId(0);
  decl.value = 3.0;
  decl.signature = random_bytes(rng, 32);
  frame.attachments.push_back(decl);
  const Bytes valid = frame.encode();
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    const Bytes truncated(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)proto::relay::RelayDataFrame::decode(truncated), DecodeError) << cut;
  }
  for (std::size_t i = 0; i < valid.size(); ++i) {
    for (const std::uint8_t flip : {0x01, 0x80, 0xff}) {
      Bytes mutated = valid;
      mutated[i] ^= flip;
      try {
        (void)proto::relay::RelayDataFrame::decode(mutated);
      } catch (const DecodeError&) {
      }
    }
  }
  // The untouched encoding round-trips.
  EXPECT_EQ(proto::relay::RelayDataFrame::decode(valid).encode(), valid);
}

TEST(FuzzDecode, QualityDeclarationTruncationsNeverCrash) {
  Rng rng(116);
  proto::QualityDeclaration decl;
  decl.declarer = NodeId(3);
  decl.dst = NodeId(4);
  decl.value = 7.0;
  decl.frame = 2;
  decl.at = TimePoint::from_seconds(10.0);
  decl.signature = random_bytes(rng, 32);
  const Bytes valid = decl.encode();
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    const Bytes truncated(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)proto::QualityDeclaration::decode(truncated), DecodeError) << cut;
  }
  EXPECT_EQ(proto::QualityDeclaration::decode(valid).encode(), valid);
}

TEST(FuzzDecode, SealedMessageTruncationsNeverCrash) {
  Rng rng(117);
  const crypto::SuitePtr suite = crypto::make_fast_suite(0xF117);
  crypto::Authority authority(suite, rng);
  proto::Roster roster;
  std::vector<crypto::NodeIdentity> ids;
  for (std::uint32_t i = 0; i < 2; ++i) {
    ids.emplace_back(suite, NodeId(i), authority, rng);
    roster.add(ids.back().certificate());
  }
  const proto::SealedMessage msg = proto::make_message(
      ids[0], roster.get(NodeId(1)), MessageId(3), random_bytes(rng, 40), rng);
  const Bytes valid = msg.encode();
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    const Bytes truncated(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)proto::SealedMessage::decode(truncated), DecodeError) << cut;
  }
  EXPECT_EQ(proto::SealedMessage::decode(valid).encode(), valid);
}

TEST(FuzzDecode, StrictDecodersRejectTrailingBytes) {
  // A whole-buffer decode must consume the buffer exactly: one stray byte
  // after a valid encoding is a framing error, not padding to ignore.
  Rng rng(118);
  proto::ProofOfRelay por;
  por.h.fill(0x5a);
  por.giver = NodeId(1);
  por.taker = NodeId(2);
  por.delegation = true;
  por.taker_signature = random_bytes(rng, 48);
  proto::QualityDeclaration decl;
  decl.declarer = NodeId(3);
  decl.signature = random_bytes(rng, 32);
  const crypto::SuitePtr suite = crypto::make_fast_suite(0xF118);
  crypto::Authority authority(suite, rng);
  proto::Roster roster;
  std::vector<crypto::NodeIdentity> ids;
  for (std::uint32_t i = 0; i < 2; ++i) {
    ids.emplace_back(suite, NodeId(i), authority, rng);
    roster.add(ids.back().certificate());
  }
  const proto::SealedMessage msg = proto::make_message(
      ids[0], roster.get(NodeId(1)), MessageId(5), random_bytes(rng, 16), rng);
  proto::ProofOfMisbehavior pom;
  pom.kind = proto::ProofOfMisbehavior::Kind::RelayFailure;
  pom.culprit = NodeId(2);
  pom.accuser = NodeId(1);
  pom.evidence_accepted = por;

  const auto reject_padded = [](const Bytes& valid, auto&& decode) {
    Bytes padded = valid;
    padded.push_back(0x00);
    EXPECT_THROW(decode(padded), DecodeError);
  };
  reject_padded(por.encode(), [](const Bytes& b) { (void)proto::ProofOfRelay::decode(b); });
  por.delegation = false;
  reject_padded(por.encode(), [](const Bytes& b) { (void)proto::ProofOfRelay::decode(b); });
  reject_padded(por.encode(),
                [](const Bytes& b) { (void)proto::ProofOfRelayView::decode(b); });
  reject_padded(decl.encode(),
                [](const Bytes& b) { (void)proto::QualityDeclaration::decode(b); });
  reject_padded(msg.encode(), [](const Bytes& b) { (void)proto::SealedMessage::decode(b); });
  reject_padded(msg.encode(),
                [](const Bytes& b) { (void)proto::SealedMessageView::decode(b); });
  reject_padded(pom.encode(),
                [](const Bytes& b) { (void)proto::ProofOfMisbehavior::decode(b); });
}

TEST(FuzzDecode, PomRejectsTrailingJunkInsideEvidence) {
  // An evidence blob whose length prefix covers more than the artefact's
  // canonical encoding smuggles unauthenticated bytes into a gossiped PoM;
  // the strict sub-decode must reject it.
  Rng rng(119);
  proto::ProofOfMisbehavior pom;
  pom.kind = proto::ProofOfMisbehavior::Kind::RelayFailure;
  pom.culprit = NodeId(2);
  pom.accuser = NodeId(1);
  proto::ProofOfRelay por;
  por.h.fill(0x66);
  por.giver = NodeId(1);
  por.taker = NodeId(2);
  por.delegation = false;
  por.taker_signature = random_bytes(rng, 32);
  pom.evidence_accepted = por;
  const Bytes valid = pom.encode();
  ASSERT_NO_THROW((void)proto::ProofOfMisbehavior::decode(valid));

  // Header: kind(1) + culprit(4) + accuser(4) + at(8) + presence flag(1),
  // then the u32 length prefix of the accepted-evidence blob.
  const std::size_t len_off = 1 + 4 + 4 + 8 + 1;
  const std::size_t blob_len = por.wire_size();
  Bytes tampered = valid;
  tampered.insert(tampered.begin() +
                      static_cast<std::ptrdiff_t>(len_off + 4 + blob_len),
                  std::uint8_t{0xAA});
  tampered[len_off] = static_cast<std::uint8_t>(blob_len + 1);  // small, no carry
  EXPECT_THROW((void)proto::ProofOfMisbehavior::decode(tampered), DecodeError);
}

TEST(FuzzDecode, DecodeViewsSurviveJunk) {
  // The non-owning view decoders walk the same grammar as the owning ones;
  // they must be exactly as robust against malformed input.
  Rng rng(120);
  expect_no_crash(rng, [](const Bytes& b) { (void)proto::ProofOfRelayView::decode(b); });
  expect_no_crash(rng, [](const Bytes& b) { (void)proto::SealedMessageView::decode(b); });
  expect_no_crash(rng,
                  [](const Bytes& b) { (void)proto::relay::RelayDataFrameView::decode(b); });
}

TEST(FuzzDecode, DecodeViewsMatchOwningDecoders) {
  Rng rng(121);
  const crypto::SuitePtr suite = crypto::make_fast_suite(0xF121);
  crypto::Authority authority(suite, rng);
  proto::Roster roster;
  std::vector<crypto::NodeIdentity> ids;
  for (std::uint32_t i = 0; i < 2; ++i) {
    ids.emplace_back(suite, NodeId(i), authority, rng);
    roster.add(ids.back().certificate());
  }
  proto::relay::RelayDataFrame frame;
  frame.msg = proto::make_message(ids[0], roster.get(NodeId(1)), MessageId(7),
                                  random_bytes(rng, 24), rng);
  frame.h = frame.msg.hash();
  proto::QualityDeclaration decl;
  decl.declarer = NodeId(1);
  decl.dst = NodeId(0);
  decl.value = 2.5;
  decl.signature = random_bytes(rng, 32);
  frame.attachments.push_back(decl);
  const Bytes valid = frame.encode();

  const proto::relay::RelayDataFrameView view = proto::relay::RelayDataFrameView::decode(valid);
  EXPECT_EQ(view.h, frame.h);
  EXPECT_EQ(view.msg.hash(), frame.msg.hash());
  EXPECT_EQ(Bytes(view.msg.wire.begin(), view.msg.wire.end()), frame.msg.encode());
  EXPECT_EQ(view.msg.wire_size(), frame.msg.wire_size());
  const std::vector<proto::QualityDeclaration> attachments = view.decode_attachments();
  ASSERT_EQ(attachments.size(), 1u);
  EXPECT_EQ(attachments[0].encode(), decl.encode());
  // Every truncation of the frame must be rejected by the view decoder too.
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    const Bytes truncated(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)proto::relay::RelayDataFrameView::decode(truncated), DecodeError)
        << cut;
  }

  proto::ProofOfRelay por;
  por.h.fill(0x3d);
  por.giver = NodeId(0);
  por.taker = NodeId(1);
  por.delegation = true;
  por.taker_signature = random_bytes(rng, 40);
  const Bytes por_wire = por.encode();
  const proto::ProofOfRelayView por_view = proto::ProofOfRelayView::decode(por_wire);
  EXPECT_EQ(por_view.to_owned().encode(), por_wire);
  EXPECT_EQ(por_view.wire_size(), por_wire.size());
  // The signed payload built through the view matches the owning one.
  EXPECT_EQ(por_view.signed_payload_size(), por.signed_payload_size());
  Bytes view_payload(por_view.signed_payload_size());
  SpanWriter w(view_payload);
  por_view.signed_payload_into(w);
  w.expect_full();
  EXPECT_EQ(view_payload, por.signed_payload());
  for (std::size_t cut = 0; cut < por_wire.size(); ++cut) {
    const Bytes truncated(por_wire.begin(),
                          por_wire.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)proto::ProofOfRelayView::decode(truncated), DecodeError) << cut;
  }
}

TEST(FuzzDecode, U256FromHexSurvivesJunkStrings) {
  Rng rng(109);
  const char alphabet[] = "0123456789abcdefXYZ -";
  for (int i = 0; i < 300; ++i) {
    std::string s;
    const std::size_t len = rng.below(80);
    for (std::size_t j = 0; j < len; ++j) {
      s.push_back(alphabet[rng.below(sizeof(alphabet) - 1)]);
    }
    try {
      (void)crypto::U256::from_hex(s);
    } catch (const DecodeError&) {
    }
  }
}

}  // namespace
}  // namespace g2g
