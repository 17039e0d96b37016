#include "g2g/crypto/suite.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "g2g/crypto/hmac.hpp"
#include "g2g/crypto/key_memo.hpp"
#include "g2g/crypto/schnorr.hpp"
#include "g2g/crypto/sealed_box.hpp"
#include "oracle/oracle.hpp"

namespace g2g::crypto {
namespace {

// Parameterized over both suite implementations: the protocol layer must be
// able to run on either.
class SuiteTest : public ::testing::TestWithParam<const char*> {
 protected:
  SuitePtr make() const {
    if (std::string(GetParam()) == "schnorr-rs") {
      return make_schnorr_rs_suite(SchnorrGroup::small_group());
    }
    return make_fast_suite(0x5eed);
  }
  /// The same scheme in the test oracle (tests/oracle/).
  SuitePtr make_oracle() const {
    if (std::string(GetParam()) == "schnorr-rs") {
      return oracle::schnorr_rs_suite(SchnorrGroup::small_group());
    }
    return oracle::fast_suite(0x5eed);
  }
};

TEST_P(SuiteTest, SignVerifyRoundTrip) {
  const SuitePtr suite = make();
  Rng rng(1);
  const KeyPair kp = suite->keygen(rng);
  const Bytes msg = to_bytes("hello");
  const Bytes sig = suite->sign(kp.secret_key, msg);
  EXPECT_EQ(sig.size(), suite->signature_size());
  EXPECT_TRUE(suite->verify(kp.public_key, msg, sig));
}

TEST_P(SuiteTest, TamperedMessageRejected) {
  const SuitePtr suite = make();
  Rng rng(2);
  const KeyPair kp = suite->keygen(rng);
  Bytes msg = to_bytes("hello");
  const Bytes sig = suite->sign(kp.secret_key, msg);
  msg[0] ^= 1;
  EXPECT_FALSE(suite->verify(kp.public_key, msg, sig));
}

TEST_P(SuiteTest, WrongKeyRejected) {
  const SuitePtr suite = make();
  Rng rng(3);
  const KeyPair a = suite->keygen(rng);
  const KeyPair b = suite->keygen(rng);
  const Bytes msg = to_bytes("hello");
  const Bytes sig = suite->sign(a.secret_key, msg);
  EXPECT_FALSE(suite->verify(b.public_key, msg, sig));
}

TEST_P(SuiteTest, TamperedSignatureRejected) {
  const SuitePtr suite = make();
  Rng rng(4);
  const KeyPair kp = suite->keygen(rng);
  const Bytes msg = to_bytes("hello");
  Bytes sig = suite->sign(kp.secret_key, msg);
  sig[sig.size() / 2] ^= 0x40;
  EXPECT_FALSE(suite->verify(kp.public_key, msg, sig));
  EXPECT_FALSE(suite->verify(kp.public_key, msg, Bytes{}));  // wrong size
}

TEST_P(SuiteTest, SharedSecretSymmetric) {
  const SuitePtr suite = make();
  Rng rng(5);
  const KeyPair a = suite->keygen(rng);
  const KeyPair b = suite->keygen(rng);
  EXPECT_EQ(suite->shared_secret(a.secret_key, b.public_key),
            suite->shared_secret(b.secret_key, a.public_key));
}

TEST_P(SuiteTest, SharedSecretPairSpecific) {
  const SuitePtr suite = make();
  Rng rng(6);
  const KeyPair a = suite->keygen(rng);
  const KeyPair b = suite->keygen(rng);
  const KeyPair c = suite->keygen(rng);
  EXPECT_NE(suite->shared_secret(a.secret_key, b.public_key),
            suite->shared_secret(a.secret_key, c.public_key));
}

TEST_P(SuiteTest, SealedBoxRoundTrip) {
  const SuitePtr suite = make();
  Rng rng(7);
  const KeyPair recipient = suite->keygen(rng);
  const Bytes plain = to_bytes("S, msg_id, body — sealed to D");
  const SealedBox box = seal(*suite, rng, recipient.public_key, plain);
  EXPECT_NE(box.ciphertext, plain);
  EXPECT_EQ(seal_open(*suite, recipient.secret_key, box), plain);
}

TEST_P(SuiteTest, SealedBoxWrongRecipientGetsGarbage) {
  const SuitePtr suite = make();
  Rng rng(8);
  const KeyPair recipient = suite->keygen(rng);
  const KeyPair other = suite->keygen(rng);
  const Bytes plain = to_bytes("only for the destination");
  const SealedBox box = seal(*suite, rng, recipient.public_key, plain);
  EXPECT_NE(seal_open(*suite, other.secret_key, box), plain);
}

TEST_P(SuiteTest, DistinctKeygens) {
  const SuitePtr suite = make();
  Rng rng(9);
  const KeyPair a = suite->keygen(rng);
  const KeyPair b = suite->keygen(rng);
  EXPECT_NE(a.public_key, b.public_key);
  EXPECT_NE(a.secret_key, b.secret_key);
}

TEST_P(SuiteTest, ArtifactsAndVerdictsIdenticalWithMontgomeryOnAndOff) {
  // Every suite must produce bit-identical keys, signatures, shared secrets,
  // and accept/reject verdicts to its oracle. "Montgomery on" is the
  // production suite (side 0: Montgomery arithmetic, SHA-NI where the CPU
  // has it), "off" the oracle (side 1: schoolbook arithmetic, scalar rounds).
  const SuitePtr suites[2] = {make(), make_oracle()};
  KeyPair kp[2];
  KeyPair peer[2];
  Bytes sig[2];
  Bytes secret[2];
  bool verdicts[2][3];
  const Bytes msg = to_bytes("relay proof, epoch 9");
  for (const std::size_t side : {0u, 1u}) {
    const Suite* suite = suites[side].get();
    Rng rng(11);  // same draws on both sides
    kp[side] = suite->keygen(rng);
    peer[side] = suite->keygen(rng);
    sig[side] = suite->sign(kp[side].secret_key, msg);
    secret[side] = suite->shared_secret(kp[side].secret_key, peer[side].public_key);
    Bytes tampered_sig = sig[side];
    tampered_sig[5] ^= 0x10;
    Bytes tampered_msg = msg;
    tampered_msg[0] ^= 0x01;
    const VerifyRequest reqs[] = {
        {BytesView(kp[side].public_key), BytesView(msg), BytesView(sig[side])},
        {BytesView(kp[side].public_key), BytesView(tampered_msg), BytesView(sig[side])},
        {BytesView(kp[side].public_key), BytesView(msg), BytesView(tampered_sig)},
    };
    suite->verify_batch(reqs, verdicts[side]);
  }
  EXPECT_EQ(kp[0].public_key, kp[1].public_key);
  EXPECT_EQ(kp[0].secret_key, kp[1].secret_key);
  EXPECT_EQ(sig[0], sig[1]);
  EXPECT_EQ(secret[0], secret[1]);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(verdicts[0][i], verdicts[1][i]) << "request " << i;
    EXPECT_EQ(verdicts[0][i], i == 0) << "request " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSuites, SuiteTest,
                         ::testing::Values("schnorr-rs", "fast"),
                         [](const auto& info) {
                           std::string name(info.param);
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(FastSuite, DifferentSeedsCannotCrossVerify) {
  // A signature made under one suite seed must not verify under another:
  // the seed plays the role of the unforgeability assumption.
  const SuitePtr s1 = make_fast_suite(1);
  const SuitePtr s2 = make_fast_suite(2);
  Rng rng(10);
  const KeyPair kp = s1->keygen(rng);
  const Bytes sig = s1->sign(kp.secret_key, to_bytes("m"));
  EXPECT_FALSE(s2->verify(kp.public_key, to_bytes("m"), sig));
  // Signing reads only the secret key's MAC half, whichever suite signs. s2
  // has just memoised its own K_pub for this public key; a signing memo keyed
  // by the public half would answer with that instead.
  EXPECT_EQ(s2->sign(kp.secret_key, to_bytes("m")), sig);
  EXPECT_EQ(sig, digest_bytes(hmac_sha256(BytesView(kp.secret_key).subspan(32), to_bytes("m"))));
}

TEST(SharedSuite, ConcurrentSignVerifyMatchesSingleThreadedRun) {
  // One (R,s) suite and one FastSuite, each shared by 4 threads whose key
  // ranges overlap and together pass the memo bound, so lookups, table builds
  // and clears interleave. Every signature and verdict must equal a
  // single-threaded run on a fresh suite.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kKeys = KeyMemo<HmacKey>::kMaxKeys + 32;
  constexpr std::size_t kSpan = kKeys / 2;  // each key is visited by two threads
  const auto make = [](bool schnorr) {
    return schnorr ? make_schnorr_rs_suite(SchnorrGroup::small_group()) : make_fast_suite(0x5eed);
  };
  for (const bool schnorr : {true, false}) {
    const SuitePtr shared = make(schnorr);
    Rng rng(12);
    std::vector<KeyPair> keys;
    for (std::size_t i = 0; i < kKeys; ++i) keys.push_back(shared->keygen(rng));
    // Per thread: each signature, then its verdicts under the right key, a
    // tampered copy, and the neighbouring key.
    const auto work = [&](const Suite& suite, std::size_t t, std::vector<Bytes>& sigs,
                          std::vector<char>& verdicts) {
      for (std::size_t j = 0; j < kSpan; ++j) {
        const std::size_t i = (t * kKeys / kThreads + j) % kKeys;
        Writer w;
        w.u32(static_cast<std::uint32_t>(i));
        const Bytes msg = std::move(w).take();
        Bytes sig = suite.sign(keys[i].secret_key, msg);
        Bytes tampered = sig;
        tampered[3] ^= 0x10;
        verdicts.push_back(suite.verify(keys[i].public_key, msg, sig));
        verdicts.push_back(suite.verify(keys[i].public_key, msg, tampered));
        verdicts.push_back(suite.verify(keys[(i + 1) % kKeys].public_key, msg, sig));
        sigs.push_back(std::move(sig));
      }
    };
    std::vector<std::vector<Bytes>> sigs(kThreads);
    std::vector<std::vector<char>> verdicts(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] { work(*shared, t, sigs[t], verdicts[t]); });
    }
    for (auto& th : threads) th.join();

    const SuitePtr fresh = make(schnorr);
    for (std::size_t t = 0; t < kThreads; ++t) {
      std::vector<Bytes> ref_sigs;
      std::vector<char> ref_verdicts;
      work(*fresh, t, ref_sigs, ref_verdicts);
      EXPECT_EQ(sigs[t], ref_sigs) << "schnorr=" << schnorr << ", thread " << t;
      EXPECT_EQ(verdicts[t], ref_verdicts) << "schnorr=" << schnorr << ", thread " << t;
      for (std::size_t k = 0; k < ref_verdicts.size(); ++k) {
        EXPECT_EQ(ref_verdicts[k] != 0, k % 3 == 0) << "thread " << t << ", verdict " << k;
      }
    }
  }
}

TEST(SessionKeys, DerivationBindsTranscript) {
  const SessionKeys k1 = derive_session_keys(to_bytes("secret"), to_bytes("transcript-a"));
  const SessionKeys k2 = derive_session_keys(to_bytes("secret"), to_bytes("transcript-b"));
  EXPECT_NE(k1.enc_key, k2.enc_key);
  const SessionKeys k3 = derive_session_keys(to_bytes("secret"), to_bytes("transcript-a"));
  EXPECT_EQ(k1.enc_key, k3.enc_key);
  EXPECT_EQ(k1.nonce, k3.nonce);
}

}  // namespace
}  // namespace g2g::crypto
