// DeclarationMemo: a G2G Delegation node signs a repeated FQ_RESP declaration
// once per instant and verifies a repeated one once, on both suites, without
// changing a byte of what it sends or a verdict it reaches. A decorator
// (FqRespCountingSuite) counts every sign and verify that reaches the suite,
// so each hit is also checked as a suite call that did not happen.
#include "g2g/proto/declaration_memo.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "g2g/crypto/schnorr.hpp"
#include "g2g/util/arena.hpp"
#include "oracle/oracle.hpp"
#include "proto_test_util.hpp"

namespace g2g::proto {
namespace {

using Verdict = DeclarationMemo::Verdict;

constexpr std::size_t kNodes = 4;

class MemoTest : public ::testing::TestWithParam<const char*> {
 protected:
  MemoTest() : counting_(std::make_shared<testutil::FqRespCountingSuite>(make_inner())) {
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      ids_.emplace_back(counting_, NodeId(i), authority_, rng_);
      roster_.add(ids_.back().certificate());
    }
  }

  [[nodiscard]] crypto::SuitePtr make_inner() const {
    if (std::string(GetParam()) == "schnorr-rs") {
      return crypto::make_schnorr_rs_suite(crypto::SchnorrGroup::small_group());
    }
    return crypto::make_fast_suite(0xDEC1);
  }

  /// Node 1's declaration about D' = 2 at t = 100 s.
  [[nodiscard]] static QualityDeclaration decl(double value = 3.0) {
    QualityDeclaration d;
    d.declarer = NodeId(1);
    d.dst = NodeId(2);
    d.value = value;
    d.frame = 5;
    d.at = TimePoint::from_seconds(100.0);
    return d;
  }
  /// What a fresh sign by the declarer returns.
  [[nodiscard]] crypto::Signature fresh(const QualityDeclaration& d) const {
    return ids_[d.declarer.value()].sign(d.signed_payload());
  }

  /// memo.sign() as d's declarer; the suite must sign exactly when the memo
  /// says it did not reuse.
  bool sign(DeclarationMemo& memo, QualityDeclaration& d) {
    const std::size_t before = counting_->signs();
    const bool reused = memo.sign(ids_[d.declarer.value()], d, arena_);
    EXPECT_EQ(counting_->signs() - before, reused ? 0u : 1u);
    return reused;
  }
  /// memo.verify(); the suite must verify exactly when the memo does not
  /// recall the declaration.
  Verdict verify(DeclarationMemo& memo, const QualityDeclaration& d) {
    const std::size_t before = counting_->verifies();
    const Verdict verdict = memo.verify(roster_, d, arena_);
    EXPECT_EQ(counting_->verifies() - before, verdict == Verdict::Recalled ? 0u : 1u);
    return verdict;
  }
  /// decl(value), signed by node 1 through `memo`.
  [[nodiscard]] QualityDeclaration signed_by(DeclarationMemo& memo, double value = 3.0) {
    QualityDeclaration d = decl(value);
    (void)sign(memo, d);
    return d;
  }

  Rng rng_{11};
  std::shared_ptr<testutil::FqRespCountingSuite> counting_;
  crypto::Authority authority_{counting_, rng_};
  std::vector<crypto::NodeIdentity> ids_;
  Roster roster_{counting_};
  Arena arena_;
};

TEST_P(MemoTest, SignReusesOnlyAnIdenticalPayload) {
  DeclarationMemo memo(kNodes);
  QualityDeclaration d = decl();
  EXPECT_FALSE(sign(memo, d));
  EXPECT_EQ(d.signature, fresh(d));
  QualityDeclaration again = decl();
  EXPECT_TRUE(sign(memo, again));
  EXPECT_EQ(again.signature, d.signature);

  // Every field of the signed payload is part of the key; f by its bits.
  QualityDeclaration other_frame = decl();
  other_frame.frame = 6;
  QualityDeclaration next_ulp = decl(3.0000000000000004);
  QualityDeclaration negative_zero = decl(-0.0);
  QualityDeclaration zero = decl(0.0);
  QualityDeclaration by_three = decl();
  by_three.declarer = NodeId(3);
  for (QualityDeclaration* x : {&other_frame, &next_ulp, &negative_zero, &zero, &by_three}) {
    EXPECT_FALSE(sign(memo, *x));
    EXPECT_EQ(x->signature, fresh(*x));
  }
  EXPECT_NE(negative_zero.signature, zero.signature);

  // A declaration about another D' has a slot of its own.
  QualityDeclaration about_three = decl();
  about_three.dst = NodeId(3);
  EXPECT_FALSE(sign(memo, about_three));
  QualityDeclaration about_three_again = about_three;
  EXPECT_TRUE(sign(memo, about_three_again));
  EXPECT_EQ(about_three_again.signature, fresh(about_three));
}

TEST_P(MemoTest, VerifyRecallsOnlyAnIdenticalDeclaration) {
  DeclarationMemo signer(kNodes);
  DeclarationMemo giver(kNodes);
  const QualityDeclaration d = signed_by(signer);
  EXPECT_EQ(verify(giver, d), Verdict::Verified);
  EXPECT_EQ(verify(giver, d), Verdict::Recalled);

  // The same signature over another payload is verified, and fails.
  QualityDeclaration moved = d;
  moved.value = 4.0;
  EXPECT_EQ(verify(giver, moved), Verdict::Invalid);
  EXPECT_EQ(verify(giver, d), Verdict::Recalled);

  // A declaration the node signed itself is never recalled as verified.
  DeclarationMemo both(kNodes);
  const QualityDeclaration own = signed_by(both);
  EXPECT_EQ(verify(both, own), Verdict::Verified);
}

TEST_P(MemoTest, ADeclarationAtANewInstantMisses) {
  DeclarationMemo signer(kNodes);
  DeclarationMemo giver(kNodes);
  const QualityDeclaration first = signed_by(signer);
  ASSERT_EQ(verify(giver, first), Verdict::Verified);

  QualityDeclaration later = decl();
  later.at = first.at + Duration::micros(1);
  EXPECT_FALSE(sign(signer, later));
  EXPECT_EQ(later.signature, fresh(later));
  EXPECT_EQ(verify(giver, later), Verdict::Verified);
  // The slot holds the later declaration now.
  EXPECT_EQ(verify(giver, later), Verdict::Recalled);
  EXPECT_EQ(verify(giver, first), Verdict::Verified);
}

TEST_P(MemoTest, LiarsTwoValuesForOneDestinationAreSignedSeparately) {
  // A liar that deviates only with outsiders answers two givers about the
  // same D' at the same instant with two values.
  DeclarationMemo liar(kNodes);
  DeclarationMemo giver(kNodes);
  const QualityDeclaration honest = signed_by(liar, 4.0);
  const QualityDeclaration lie = signed_by(liar, min_quality(QualityKind::DestinationFrequency));
  EXPECT_EQ(honest.signature, fresh(honest));
  EXPECT_EQ(lie.signature, fresh(lie));
  EXPECT_NE(honest.signature, lie.signature);
  // The slot holds the last one signed, so the honest value is signed again.
  QualityDeclaration honest_again = decl(4.0);
  EXPECT_FALSE(sign(liar, honest_again));
  EXPECT_EQ(honest_again.signature, honest.signature);

  EXPECT_EQ(verify(giver, honest), Verdict::Verified);
  EXPECT_EQ(verify(giver, lie), Verdict::Verified);
  EXPECT_EQ(verify(giver, lie), Verdict::Recalled);
}

TEST_P(MemoTest, ForgedSignatureOverAStoredPayloadIsRejected) {
  DeclarationMemo signer(kNodes);
  DeclarationMemo giver(kNodes);
  const QualityDeclaration d = signed_by(signer);
  ASSERT_EQ(verify(giver, d), Verdict::Verified);
  const BytesView sig = d.signature.view();
  for (const std::size_t i : {std::size_t{0}, sig.size() - 1}) {
    Bytes bytes(sig.begin(), sig.end());
    bytes[i] ^= 0x01;
    QualityDeclaration forged = d;
    forged.signature = crypto::Signature(bytes);
    EXPECT_EQ(verify(giver, forged), Verdict::Invalid) << "byte " << i;
  }
  QualityDeclaration truncated = d;
  truncated.signature = crypto::Signature(sig.first(sig.size() - 1));
  EXPECT_EQ(verify(giver, truncated), Verdict::Invalid);
  // A rejected declaration does not displace the verified one.
  EXPECT_EQ(verify(giver, d), Verdict::Recalled);
}

TEST_P(MemoTest, DestinationOutsideTheTableReachesTheSuiteEveryTime) {
  DeclarationMemo signer(2);  // slots for D' = 0 and 1 only; decl() is about 2
  DeclarationMemo giver(2);
  QualityDeclaration d = decl();
  EXPECT_FALSE(sign(signer, d));
  QualityDeclaration again = decl();
  EXPECT_FALSE(sign(signer, again));
  EXPECT_EQ(again.signature, d.signature);
  EXPECT_EQ(verify(giver, d), Verdict::Verified);
  EXPECT_EQ(verify(giver, d), Verdict::Verified);
}

INSTANTIATE_TEST_SUITE_P(AllSuites, MemoTest, ::testing::Values("schnorr-rs", "fast"),
                         [](const auto& info) {
                           std::string name(info.param);
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(DeclarationMemo, AnotherValidRsSignatureIsVerifiedInFull) {
  // (R, s) has many valid signatures per payload: one that verifies but is
  // not the stored one's bytes reaches the suite, and is accepted.
  const crypto::SchnorrGroup& group = crypto::SchnorrGroup::small_group();
  const auto counting =
      std::make_shared<testutil::FqRespCountingSuite>(crypto::make_schnorr_rs_suite(group));
  Rng rng(5);
  const crypto::Authority authority(counting, rng);
  const crypto::KeyPair kp = counting->keygen(rng);
  Roster roster(counting);
  roster.add(authority.issue(NodeId(1), kp.public_key));
  Arena arena;

  QualityDeclaration d;
  d.declarer = NodeId(1);
  d.dst = NodeId(0);
  d.value = 2.0;
  d.frame = 1;
  d.at = TimePoint::from_seconds(7.0);
  const Bytes payload = d.signed_payload();
  d.signature = crypto::Signature(counting->sign(kp.secret_key, payload));
  QualityDeclaration other = d;
  Rng nonce(99);
  other.signature = crypto::Signature(
      oracle::schnorr_rs_sign(group, crypto::U256::from_bytes_be(kp.secret_key), payload, nonce)
          .encode());
  ASSERT_NE(other.signature, d.signature);

  DeclarationMemo memo(2);
  const std::size_t before = counting->verifies();
  EXPECT_EQ(memo.verify(roster, d, arena), Verdict::Verified);
  EXPECT_EQ(memo.verify(roster, other, arena), Verdict::Verified);
  EXPECT_EQ(counting->verifies(), before + 2);
  EXPECT_EQ(memo.verify(roster, other, arena), Verdict::Recalled);
  EXPECT_EQ(counting->verifies(), before + 2);
}

}  // namespace
}  // namespace g2g::proto
