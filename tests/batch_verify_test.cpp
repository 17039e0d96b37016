// Adversarial batch-verification tests for the (R,s)-form Schnorr suite.
//
// Suite::verify_batch checks each signature through the per-signer tables;
// these tests pin the properties a caller depends on:
//  * a forged signature anywhere in a batch reads false at exactly its own
//    index, and every other index stays true;
//  * the verdicts agree, one for one, with the schoolbook oracle suite
//    (tests/oracle/). Names that say "Montgomery on and off" compare the
//    production suite ("on") with the oracle ("off").
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

TEST(RsSuiteMeta, NameAndSizes) {
  const SuitePtr rs = make_schnorr_rs_suite(SchnorrGroup::small_group());
  EXPECT_EQ(rs->name(), "schnorr-zp-rs");
  EXPECT_EQ(rs->signature_size(), 64u);
}

}  // namespace
}  // namespace g2g::crypto
