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

TEST_F(SchnorrSmall, SignVerifyRoundTrip) {
  const SchnorrKeyPair kp = engine_.keygen(rng_);
  const Bytes msg = to_bytes("proof of relay for H(m)");
  const SchnorrSignature sig = engine_.sign(kp.secret, msg, rng_);
  EXPECT_TRUE(engine_.verify(kp.public_key, msg, sig));
}

TEST_F(SchnorrSmall, TamperedMessageRejected) {
  const SchnorrKeyPair kp = engine_.keygen(rng_);
  Bytes msg = to_bytes("original");
  const SchnorrSignature sig = engine_.sign(kp.secret, msg, rng_);
  msg[0] ^= 1;
  EXPECT_FALSE(engine_.verify(kp.public_key, msg, sig));
}

TEST_F(SchnorrSmall, WrongKeyRejected) {
  const SchnorrKeyPair kp1 = engine_.keygen(rng_);
  const SchnorrKeyPair kp2 = engine_.keygen(rng_);
  const Bytes msg = to_bytes("msg");
  const SchnorrSignature sig = engine_.sign(kp1.secret, msg, rng_);
  EXPECT_FALSE(engine_.verify(kp2.public_key, msg, sig));
}

TEST_F(SchnorrSmall, TamperedSignatureComponentsRejected) {
  const SchnorrKeyPair kp = engine_.keygen(rng_);
  const Bytes msg = to_bytes("msg");
  SchnorrSignature sig = engine_.sign(kp.secret, msg, rng_);
  SchnorrSignature bad_e = sig;
  bad_e.e = add_mod(bad_e.e, U256(1), group_.q);
  EXPECT_FALSE(engine_.verify(kp.public_key, msg, bad_e));
  SchnorrSignature bad_s = sig;
  bad_s.s = add_mod(bad_s.s, U256(1), group_.q);
  EXPECT_FALSE(engine_.verify(kp.public_key, msg, bad_s));
}

TEST_F(SchnorrSmall, OutOfRangeSignatureRejected) {
  const SchnorrKeyPair kp = engine_.keygen(rng_);
  const Bytes msg = to_bytes("msg");
  SchnorrSignature sig = engine_.sign(kp.secret, msg, rng_);
  sig.s = group_.q;  // == q is out of range
  EXPECT_FALSE(engine_.verify(kp.public_key, msg, sig));
}

TEST_F(SchnorrSmall, SignatureEncodingRoundTrip) {
  const SchnorrKeyPair kp = engine_.keygen(rng_);
  const Bytes msg = to_bytes("msg");
  const SchnorrSignature sig = engine_.sign(kp.secret, msg, rng_);
  const SchnorrSignature decoded = SchnorrSignature::decode(sig.encode());
  EXPECT_EQ(decoded.e, sig.e);
  EXPECT_EQ(decoded.s, sig.s);
  EXPECT_THROW((void)SchnorrSignature::decode(Bytes(63, 0)), DecodeError);
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
    const SchnorrSignature sig = engine_.sign(kp.secret, w.bytes(), rng_);
    EXPECT_TRUE(engine_.verify(kp.public_key, w.bytes(), sig));
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
  EXPECT_TRUE(engine_.verify_rs(kp.public_key, msg, sig));
  Bytes tampered = msg;
  tampered[0] ^= 1;
  EXPECT_FALSE(engine_.verify_rs(kp.public_key, tampered, sig));
}

TEST_F(SchnorrSmall, RsAndClassicFormsShareTheTriple) {
  // Same secret and same nonce draws: the (R,s) signature is the same
  // (k, e, s) triple as the (e,s) one — R reconstructed from (e,s) must match
  // the transmitted R, and the hashes of R must match the transmitted e.
  const SchnorrKeyPair kp = engine_.keygen(rng_);
  const Bytes msg = to_bytes("one triple, two encodings");
  Rng nonce_a(77);
  Rng nonce_b(77);
  const SchnorrSignature es = engine_.sign(kp.secret, msg, nonce_a);
  const SchnorrSignatureRS rs = engine_.sign_rs(kp.secret, msg, nonce_b);
  EXPECT_EQ(es.s, rs.s);
  const U256 r_from_es = mul_mod(pow_mod(group_.g, es.s, group_.p),
                                 pow_mod(kp.public_key, es.e, group_.p), group_.p);
  EXPECT_EQ(r_from_es, rs.r);
}

TEST_F(SchnorrSmall, RsTamperedAndOutOfRangeRejected) {
  const SchnorrKeyPair kp = engine_.keygen(rng_);
  const Bytes msg = to_bytes("msg");
  const SchnorrSignatureRS sig = engine_.sign_rs(kp.secret, msg, rng_);
  SchnorrSignatureRS bad_r = sig;
  bad_r.r = mul_mod(bad_r.r, group_.g, group_.p);
  EXPECT_FALSE(engine_.verify_rs(kp.public_key, msg, bad_r));
  SchnorrSignatureRS bad_s = sig;
  bad_s.s = add_mod(bad_s.s, U256(1), group_.q);
  EXPECT_FALSE(engine_.verify_rs(kp.public_key, msg, bad_s));
  SchnorrSignatureRS oor = sig;
  oor.s = group_.q;
  EXPECT_FALSE(engine_.verify_rs(kp.public_key, msg, oor));
  oor = sig;
  oor.r = group_.p;
  EXPECT_FALSE(engine_.verify_rs(kp.public_key, msg, oor));
  oor = sig;
  oor.r = U256(0);
  EXPECT_FALSE(engine_.verify_rs(kp.public_key, msg, oor));
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
  EXPECT_TRUE(engine_.verify_rs(kp.public_key, msg, a));
}

// Corpora of (R,s) signatures under distinct keys, checked through the
// engine's per-signer tables. A batch verdict is the AND of per-signature
// verdicts (Suite::verify_batch is that loop), and each per-signature verdict
// must equal the oracle's.
class SchnorrRsBatch : public ::testing::Test {
 protected:
  struct Signed {
    SchnorrKeyPair kp;
    Bytes msg;
    SchnorrSignatureRS sig;
  };
  struct Item {
    U256 public_key;
    Bytes message;
    SchnorrSignatureRS sig;
  };

  std::vector<Signed> make_corpus(std::size_t n) {
    std::vector<Signed> out;
    for (std::size_t i = 0; i < n; ++i) {
      Signed item;
      item.kp = engine_.keygen(rng_);
      Writer w;
      w.str("batch-msg");
      w.u32(static_cast<std::uint32_t>(i));
      item.msg = std::move(w).take();
      item.sig = engine_.sign_rs(item.kp.secret, item.msg, rng_);
      out.push_back(std::move(item));
    }
    return out;
  }

  static std::vector<Item> views(const std::vector<Signed>& corpus) {
    std::vector<Item> items;
    for (const auto& c : corpus) items.push_back(Item{c.kp.public_key, c.msg, c.sig});
    return items;
  }

  bool verify_all(const std::vector<Item>& items) const {
    bool all = true;
    for (const Item& it : items) {
      const bool ok = engine_.verify_rs(it.public_key, it.message, it.sig);
      EXPECT_EQ(ok, oracle::schnorr_rs_verify(group_, it.public_key, it.message, it.sig));
      all = all && ok;
    }
    return all;
  }

  const SchnorrGroup& group_ = SchnorrGroup::small_group();
  SchnorrEngine engine_{group_};
  Rng rng_{0xba7c4};
};

TEST_F(SchnorrRsBatch, AllValidBatchesVerify) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{7},
                              std::size_t{16}}) {
    const auto corpus = make_corpus(n);
    EXPECT_TRUE(verify_all(views(corpus))) << "n=" << n;
  }
}

TEST_F(SchnorrRsBatch, AnySingleForgeryRejectsTheBatch) {
  const auto corpus = make_corpus(6);
  for (std::size_t bad = 0; bad < corpus.size(); ++bad) {
    auto items = views(corpus);
    SchnorrSignatureRS forged = items[bad].sig;
    forged.s = add_mod(forged.s, U256(1), group_.q);
    items[bad].sig = forged;
    EXPECT_FALSE(verify_all(items)) << "forged index " << bad;
  }
}

TEST_F(SchnorrRsBatch, SwappedMessagesRejectTheBatch) {
  auto corpus = make_corpus(4);
  auto items = views(corpus);
  std::swap(items[1].message, items[2].message);
  EXPECT_FALSE(verify_all(items));
}

TEST_F(SchnorrRsBatch, StructurallyInvalidItemsRejectTheBatch) {
  auto corpus = make_corpus(3);
  {
    auto items = views(corpus);
    items[1].sig.s = group_.q;
    EXPECT_FALSE(verify_all(items));
  }
  {
    auto items = views(corpus);
    items[2].sig.r = U256(0);
    EXPECT_FALSE(verify_all(items));
  }
  {
    auto items = views(corpus);
    items[0].public_key = U256(0);
    EXPECT_FALSE(verify_all(items));
  }
}

TEST_F(SchnorrRsBatch, BatchVerdictMatchesPerSignatureOnRandomCorpora) {
  // Randomly corrupt some items; the batch must accept iff every item
  // verifies individually.
  for (int trial = 0; trial < 10; ++trial) {
    auto corpus = make_corpus(5);
    bool all_valid = true;
    for (auto& c : corpus) {
      if (rng_.next() % 3 == 0) {
        c.sig.s = add_mod(c.sig.s, U256(1 + rng_.next() % 5), group_.q);
        all_valid = false;
      }
    }
    bool per_sig = true;
    for (const auto& c : corpus) {
      per_sig = per_sig && oracle::schnorr_rs_verify(group_, c.kp.public_key, c.msg, c.sig);
    }
    EXPECT_EQ(per_sig, all_valid);
    EXPECT_EQ(verify_all(views(corpus)), all_valid) << "trial " << trial;
  }
}

TEST(SchnorrDefaultGroup, SignVerifyOnDefaultGroup) {
  const SchnorrEngine engine(SchnorrGroup::default_group());
  Rng rng(11);
  const SchnorrKeyPair kp = engine.keygen(rng);
  const Bytes msg = to_bytes("full-size group check");
  const SchnorrSignature sig = engine.sign(kp.secret, msg, rng);
  EXPECT_TRUE(engine.verify(kp.public_key, msg, sig));
  Bytes tampered = msg;
  tampered.back() ^= 0x80;
  EXPECT_FALSE(engine.verify(kp.public_key, tampered, sig));
}

}  // namespace
}  // namespace g2g::crypto
