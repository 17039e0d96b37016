#include "g2g/crypto/schnorr.hpp"

#include <gtest/gtest.h>

#include "oracle/oracle.hpp"

namespace g2g::crypto {
namespace {

// The scheme as production runs it, through SchnorrEngine; where a test
// needs a second opinion it asks the schoolbook oracle (tests/oracle/).
// Tests run on the small group (128-bit p) to stay fast; a few also exercise
// the default 256-bit group.

TEST(SchnorrGroup, SmallGroupIsValid) {
  Rng rng(1);
  EXPECT_TRUE(SchnorrGroup::small_group().valid(rng));
}

TEST(SchnorrGroup, DefaultGroupIsValid) {
  Rng rng(2);
  const SchnorrGroup& g = SchnorrGroup::default_group();
  EXPECT_TRUE(g.valid(rng));
  EXPECT_EQ(g.p.bit_length(), 256u);
  EXPECT_EQ(g.q.bit_length(), 160u);
}

TEST(SchnorrGroup, GenerationIsDeterministic) {
  const SchnorrGroup a = SchnorrGroup::generate(128, 96, 555);
  const SchnorrGroup b = SchnorrGroup::generate(128, 96, 555);
  EXPECT_EQ(a.p, b.p);
  EXPECT_EQ(a.q, b.q);
  EXPECT_EQ(a.g, b.g);
}

TEST(SchnorrGroup, DifferentSeedsGiveDifferentGroups) {
  const SchnorrGroup a = SchnorrGroup::generate(128, 96, 1);
  const SchnorrGroup b = SchnorrGroup::generate(128, 96, 2);
  EXPECT_NE(a.p, b.p);
}

TEST(SchnorrGroup, RejectsBadSizes) {
  EXPECT_THROW((void)SchnorrGroup::generate(300, 96, 1), std::invalid_argument);
  EXPECT_THROW((void)SchnorrGroup::generate(128, 127, 1), std::invalid_argument);
}

class SchnorrSmall : public ::testing::Test {
 protected:
  const SchnorrGroup& group_ = SchnorrGroup::small_group();
  const SchnorrEngine engine_{group_};
  Rng rng_{42};
};

TEST_F(SchnorrSmall, WrongKeyRejected) {
  const SchnorrKeyPair kp1 = engine_.keygen(rng_);
  const SchnorrKeyPair kp2 = engine_.keygen(rng_);
  const Bytes msg = to_bytes("msg");
  const SchnorrSignatureRS sig = engine_.sign_rs(kp1.secret, msg, rng_);
  EXPECT_FALSE(engine_.verify_rs(engine_.prepare(kp2.public_key), msg, sig));
}

TEST_F(SchnorrSmall, KeysLieInTheSubgroup) {
  const SchnorrKeyPair kp = engine_.keygen(rng_);
  EXPECT_FALSE(kp.secret.is_zero());
  EXPECT_LT(kp.secret, group_.q);
  // Public key has order dividing q: y^q == 1.
  EXPECT_EQ(pow_mod(kp.public_key, group_.q, group_.p), U256(1));
}

TEST_F(SchnorrSmall, ManyKeysManyMessages) {
  for (int i = 0; i < 10; ++i) {
    const SchnorrKeyPair kp = engine_.keygen(rng_);
    Writer w;
    w.u32(static_cast<std::uint32_t>(i));
    const SchnorrSignatureRS sig = engine_.sign_rs(kp.secret, w.bytes(), rng_);
    EXPECT_TRUE(engine_.verify_rs(engine_.prepare(kp.public_key), w.bytes(), sig));
  }
}

TEST(SchnorrDh, SharedSecretIsSymmetric) {
  const SchnorrEngine engine(SchnorrGroup::small_group());
  Rng rng(9);
  const SchnorrKeyPair a = engine.keygen(rng);
  const SchnorrKeyPair b = engine.keygen(rng);
  EXPECT_EQ(engine.shared_secret(a.secret, b.public_key),
            engine.shared_secret(b.secret, a.public_key));
}

TEST(SchnorrDh, DistinctPairsDistinctSecrets) {
  const SchnorrEngine engine(SchnorrGroup::small_group());
  Rng rng(10);
  const SchnorrKeyPair a = engine.keygen(rng);
  const SchnorrKeyPair b = engine.keygen(rng);
  const SchnorrKeyPair c = engine.keygen(rng);
  EXPECT_NE(engine.shared_secret(a.secret, b.public_key),
            engine.shared_secret(a.secret, c.public_key));
}

TEST_F(SchnorrSmall, RsSignVerifyRoundTrip) {
  const SchnorrKeyPair kp = engine_.keygen(rng_);
  const Bytes msg = to_bytes("(R,s)-form proof of relay");
  const SchnorrSignatureRS sig = engine_.sign_rs(kp.secret, msg, rng_);
  EXPECT_TRUE(engine_.verify_rs(engine_.prepare(kp.public_key), msg, sig));
  Bytes tampered = msg;
  tampered[0] ^= 1;
  EXPECT_FALSE(engine_.verify_rs(engine_.prepare(kp.public_key), tampered, sig));
}

TEST_F(SchnorrSmall, RsTamperedAndOutOfRangeRejected) {
  const SchnorrKeyPair kp = engine_.keygen(rng_);
  const Bytes msg = to_bytes("msg");
  const SchnorrSignatureRS sig = engine_.sign_rs(kp.secret, msg, rng_);
  SchnorrSignatureRS bad_r = sig;
  bad_r.r = mul_mod(bad_r.r, group_.g, group_.p);
  EXPECT_FALSE(engine_.verify_rs(engine_.prepare(kp.public_key), msg, bad_r));
  SchnorrSignatureRS bad_s = sig;
  bad_s.s = add_mod(bad_s.s, U256(1), group_.q);
  EXPECT_FALSE(engine_.verify_rs(engine_.prepare(kp.public_key), msg, bad_s));
  SchnorrSignatureRS oor = sig;
  oor.s = group_.q;
  EXPECT_FALSE(engine_.verify_rs(engine_.prepare(kp.public_key), msg, oor));
  oor = sig;
  oor.r = group_.p;
  EXPECT_FALSE(engine_.verify_rs(engine_.prepare(kp.public_key), msg, oor));
  oor = sig;
  oor.r = U256(0);
  EXPECT_FALSE(engine_.verify_rs(engine_.prepare(kp.public_key), msg, oor));
  // The zero public key: y^e is 0 for every e > 0, so no commitment matches.
  EXPECT_FALSE(engine_.verify_rs(engine_.prepare(U256(0)), msg, sig));
  EXPECT_FALSE(oracle::schnorr_rs_verify(group_, U256(0), msg, sig));
}

TEST_F(SchnorrSmall, RsEncodingRoundTrip) {
  const SchnorrKeyPair kp = engine_.keygen(rng_);
  const SchnorrSignatureRS sig = engine_.sign_rs(kp.secret, to_bytes("x"), rng_);
  const Bytes enc = sig.encode();
  EXPECT_EQ(enc.size(), 64u);
  const SchnorrSignatureRS dec = SchnorrSignatureRS::decode(enc);
  EXPECT_EQ(dec.r, sig.r);
  EXPECT_EQ(dec.s, sig.s);
  EXPECT_THROW((void)SchnorrSignatureRS::decode(Bytes(65, 0)), DecodeError);
}

TEST_F(SchnorrSmall, EngineRsMatchesFreeFunctions) {
  // The engine against the oracle's schoolbook free functions.
  const SchnorrKeyPair kp = engine_.keygen(rng_);
  const Bytes msg = to_bytes("engine vs free fn");
  Rng nonce_a(5);
  Rng nonce_b(5);
  const SchnorrSignatureRS a = oracle::schnorr_rs_sign(group_, kp.secret, msg, nonce_a);
  const SchnorrSignatureRS b = engine_.sign_rs(kp.secret, msg, nonce_b);
  EXPECT_EQ(a.r, b.r);
  EXPECT_EQ(a.s, b.s);
  EXPECT_TRUE(engine_.verify_rs(engine_.prepare(kp.public_key), msg, a));
}

TEST(SchnorrDefaultGroup, SignVerifyOnDefaultGroup) {
  const SchnorrEngine engine(SchnorrGroup::default_group());
  Rng rng(11);
  const SchnorrKeyPair kp = engine.keygen(rng);
  const Bytes msg = to_bytes("full-size group check");
  const SchnorrSignatureRS sig = engine.sign_rs(kp.secret, msg, rng);
  EXPECT_TRUE(engine.verify_rs(engine.prepare(kp.public_key), msg, sig));
  Bytes tampered = msg;
  tampered.back() ^= 0x80;
  EXPECT_FALSE(engine.verify_rs(engine.prepare(kp.public_key), tampered, sig));
}

}  // namespace
}  // namespace g2g::crypto
