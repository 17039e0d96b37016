// Adversarial batch-verification tests for the (R,s)-form Schnorr suite.
//
// Suite::verify_batch checks each signature through the per-signer tables;
// these tests pin the properties the protocol layer depends on:
//  * a forged signature anywhere in a batch reads false at exactly its own
//    index, and every other index stays true;
//  * the (R,s) suite's verdicts must agree with the classic (e,s) suite on
//    the same corpora (same keys, same nonces, same corruption pattern);
//  * both agree, verdict for verdict, with the schoolbook oracle suites
//    (tests/oracle/). Names that say "Montgomery on and off" compare the
//    production suite ("on") with the oracle ("off").
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "g2g/crypto/schnorr.hpp"
#include "g2g/crypto/suite.hpp"
#include "oracle/oracle.hpp"

namespace g2g::crypto {
namespace {

struct SignedItem {
  KeyPair kp;
  Bytes msg;
  Bytes sig;
};

std::vector<SignedItem> make_corpus(const Suite& suite, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<SignedItem> out;
  for (std::size_t i = 0; i < n; ++i) {
    SignedItem item;
    item.kp = suite.keygen(rng);
    Writer w;
    w.str("por-audit-payload");
    w.u32(static_cast<std::uint32_t>(i));
    item.msg = std::move(w).take();
    item.sig = suite.sign(item.kp.secret_key, item.msg);
    out.push_back(std::move(item));
  }
  return out;
}

std::vector<VerifyRequest> requests_of(const std::vector<SignedItem>& corpus) {
  std::vector<VerifyRequest> reqs;
  for (const auto& c : corpus) {
    reqs.push_back(VerifyRequest{BytesView(c.kp.public_key), BytesView(c.msg),
                                 BytesView(c.sig)});
  }
  return reqs;
}

class RsBatchSuite : public ::testing::Test {
 protected:
  SuitePtr suite_ = make_schnorr_rs_suite(SchnorrGroup::small_group());
  SuitePtr oracle_ = oracle::schnorr_rs_suite(SchnorrGroup::small_group());
};

TEST_F(RsBatchSuite, AllValidBatchAcceptsEveryIndex) {
  const auto corpus = make_corpus(*suite_, 16, 1);
  const auto reqs = requests_of(corpus);
  bool verdicts[16];
  suite_->verify_batch(reqs, verdicts);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_TRUE(verdicts[i]) << "index " << i;
  }
}

TEST_F(RsBatchSuite, ForgedSignatureLocalizedToExactIndex) {
  // One forged signature anywhere in the batch: only the forged index reads
  // false.
  for (std::size_t bad = 0; bad < 8; ++bad) {
    auto corpus = make_corpus(*suite_, 8, 2);
    corpus[bad].sig[40] ^= 0x01;
    const auto reqs = requests_of(corpus);
    bool verdicts[8];
    suite_->verify_batch(reqs, verdicts);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      EXPECT_EQ(verdicts[i], i != bad) << "forged " << bad << ", index " << i;
    }
  }
}

TEST_F(RsBatchSuite, SignatureReplayAcrossMessagesLocalized) {
  auto corpus = make_corpus(*suite_, 6, 3);
  corpus[2].sig = corpus[4].sig;  // valid signature, wrong message/key
  const auto reqs = requests_of(corpus);
  bool verdicts[6];
  suite_->verify_batch(reqs, verdicts);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(verdicts[i], i != 2) << "index " << i;
  }
}

TEST_F(RsBatchSuite, MalformedLengthsLocalizedWithoutDerailingBatch) {
  auto corpus = make_corpus(*suite_, 5, 4);
  corpus[1].sig.pop_back();               // wrong signature size
  corpus[3].kp.public_key.push_back(0);   // wrong public-key size
  const auto reqs = requests_of(corpus);
  bool verdicts[5];
  suite_->verify_batch(reqs, verdicts);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(verdicts[i], i != 1 && i != 3) << "index " << i;
  }
}

TEST_F(RsBatchSuite, AdversarialMatrixIdenticalWithMontgomeryOnAndOff) {
  // The full adversarial matrix (forge at every index, replay, truncation)
  // through the production suite, which takes the per-key window tables, and
  // the schoolbook oracle suite: the verdict vectors must be identical
  // element for element.
  enum class Tamper { kForge, kReplay, kTruncate };
  for (const Tamper tamper : {Tamper::kForge, Tamper::kReplay, Tamper::kTruncate}) {
    for (std::size_t bad = 0; bad < 6; ++bad) {
      auto corpus = make_corpus(*suite_, 6, 20 + bad);
      switch (tamper) {
        case Tamper::kForge:
          corpus[bad].sig[17] ^= 0x20;
          break;
        case Tamper::kReplay:
          corpus[bad].sig = corpus[(bad + 1) % 6].sig;
          break;
        case Tamper::kTruncate:
          corpus[bad].sig.pop_back();
          break;
      }
      const auto reqs = requests_of(corpus);
      bool mont_on[6];
      bool mont_off[6];
      suite_->verify_batch(reqs, mont_on);
      oracle_->verify_batch(reqs, mont_off);
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_EQ(mont_on[i], mont_off[i])
            << "tamper " << static_cast<int>(tamper) << ", bad " << bad << ", index " << i;
        EXPECT_EQ(mont_on[i], i != bad)
            << "tamper " << static_cast<int>(tamper) << ", bad " << bad << ", index " << i;
      }
    }
  }
}

// Cross-suite differential: the (R,s) and (e,s) suites share keygen and the
// deterministic nonce derivation, so on the same corpus they must agree on
// every verdict — including under corruption.
TEST(CrossSuiteDifferential, VerdictsAgreeOnSameCorpora) {
  const SuitePtr es = make_schnorr_suite(SchnorrGroup::small_group());
  const SuitePtr rs = make_schnorr_rs_suite(SchnorrGroup::small_group());
  for (std::uint64_t seed = 10; seed < 14; ++seed) {
    auto corpus_es = make_corpus(*es, 8, seed);
    auto corpus_rs = make_corpus(*rs, 8, seed);
    for (std::size_t i = 0; i < 8; ++i) {
      // Same seed -> same keys and messages in both corpora.
      ASSERT_EQ(corpus_es[i].kp.public_key, corpus_rs[i].kp.public_key);
      ASSERT_EQ(corpus_es[i].msg, corpus_rs[i].msg);
    }
    // Corrupt the same subset of messages in both corpora.
    Rng corrupt(seed * 97);
    std::vector<bool> bad(8, false);
    for (std::size_t i = 0; i < 8; ++i) {
      if (corrupt.next() % 3 == 0) {
        bad[i] = true;
        corpus_es[i].msg[0] ^= 0x55;
        corpus_rs[i].msg[0] ^= 0x55;
      }
    }
    const auto reqs_es = requests_of(corpus_es);
    const auto reqs_rs = requests_of(corpus_rs);
    bool verdict_es[8];
    bool verdict_rs[8];
    es->verify_batch(reqs_es, verdict_es);
    rs->verify_batch(reqs_rs, verdict_rs);
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(verdict_es[i], verdict_rs[i]) << "seed " << seed << ", index " << i;
      EXPECT_EQ(verdict_rs[i], !bad[i]) << "seed " << seed << ", index " << i;
    }
  }
}

TEST(CrossSuiteDifferential, VerdictsAgreeWithMontgomeryOnAndOff) {
  // The cross-suite matrix again, production and oracle: all four verdict
  // vectors — (e,s) and (R,s), Montgomery tables and schoolbook — must agree.
  const SuitePtr es = make_schnorr_suite(SchnorrGroup::small_group());
  const SuitePtr rs = make_schnorr_rs_suite(SchnorrGroup::small_group());
  const SuitePtr es_oracle = oracle::schnorr_suite(SchnorrGroup::small_group());
  const SuitePtr rs_oracle = oracle::schnorr_rs_suite(SchnorrGroup::small_group());
  auto corpus_es = make_corpus(*es, 8, 50);
  auto corpus_rs = make_corpus(*rs, 8, 50);
  for (const std::size_t i : {std::size_t{1}, std::size_t{6}}) {
    corpus_es[i].msg[0] ^= 0x55;
    corpus_rs[i].msg[0] ^= 0x55;
  }
  const auto reqs_es = requests_of(corpus_es);
  const auto reqs_rs = requests_of(corpus_rs);
  bool es_on[8];
  bool es_off[8];
  bool rs_on[8];
  bool rs_off[8];
  es->verify_batch(reqs_es, es_on);
  rs->verify_batch(reqs_rs, rs_on);
  es_oracle->verify_batch(reqs_es, es_off);
  rs_oracle->verify_batch(reqs_rs, rs_off);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(es_on[i], es_off[i]) << "index " << i;
    EXPECT_EQ(rs_on[i], rs_off[i]) << "index " << i;
    EXPECT_EQ(es_on[i], rs_on[i]) << "index " << i;
    EXPECT_EQ(es_on[i], i != 1 && i != 6) << "index " << i;
  }
}

TEST(CrossSuiteDifferential, SameTripleDifferentEncoding) {
  // With identical secrets and messages the two forms sign the very same
  // (k, e, s) triple; each suite accepts its own encoding and rejects the
  // other's (the transmitted halves differ).
  const SuitePtr es = make_schnorr_suite(SchnorrGroup::small_group());
  const SuitePtr rs = make_schnorr_rs_suite(SchnorrGroup::small_group());
  Rng rng_a(42);
  Rng rng_b(42);
  const KeyPair kp_es = es->keygen(rng_a);
  const KeyPair kp_rs = rs->keygen(rng_b);
  ASSERT_EQ(kp_es.public_key, kp_rs.public_key);
  const Bytes msg = to_bytes("same triple");
  const Bytes sig_es = es->sign(kp_es.secret_key, msg);
  const Bytes sig_rs = rs->sign(kp_rs.secret_key, msg);
  EXPECT_NE(sig_es, sig_rs);
  // s (second 32 bytes of both encodings) is shared between the two forms.
  EXPECT_TRUE(std::equal(sig_es.begin() + 32, sig_es.end(), sig_rs.begin() + 32));
  EXPECT_TRUE(es->verify(kp_es.public_key, msg, sig_es));
  EXPECT_TRUE(rs->verify(kp_rs.public_key, msg, sig_rs));
  EXPECT_FALSE(es->verify(kp_es.public_key, msg, sig_rs));
  EXPECT_FALSE(rs->verify(kp_rs.public_key, msg, sig_es));
}

TEST(RsSuiteMeta, NameAndSizes) {
  const SuitePtr rs = make_schnorr_rs_suite(SchnorrGroup::small_group());
  EXPECT_EQ(rs->name(), "schnorr-zp-rs");
  EXPECT_EQ(rs->signature_size(), 64u);
}

}  // namespace
}  // namespace g2g::crypto
