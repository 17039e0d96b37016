#include "g2g/crypto/suite.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "g2g/crypto/hmac.hpp"
#include "g2g/crypto/identity.hpp"
#include "g2g/crypto/schnorr.hpp"
#include "g2g/crypto/sealed_box.hpp"
#include "g2g/proto/message.hpp"
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
  const SealedBox box = seal(*suite, rng, *suite->prepare_public_key(recipient.public_key), plain);
  EXPECT_NE(box.ciphertext, plain);
  EXPECT_EQ(seal_open(*suite, recipient.secret_key, box), plain);
}

TEST_P(SuiteTest, SealedBoxWrongRecipientGetsGarbage) {
  const SuitePtr suite = make();
  Rng rng(8);
  const KeyPair recipient = suite->keygen(rng);
  const KeyPair other = suite->keygen(rng);
  const Bytes plain = to_bytes("only for the destination");
  const SealedBox box = seal(*suite, rng, *suite->prepare_public_key(recipient.public_key), plain);
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

// -- Prepared keys ----------------------------------------------------------------

// The production suites prepare their own keys; the oracle suites override
// only the one-shot calls, so theirs are Suite's forwarding defaults.
struct SuiteMaker {
  const char* name;
  std::function<SuitePtr()> make;
};

// Listed test names carry the parameter: print its name, not its bytes.
void PrintTo(const SuiteMaker& maker, std::ostream* os) { *os << maker.name; }

class PreparedKeys : public ::testing::TestWithParam<SuiteMaker> {};

TEST_P(PreparedKeys, VerdictsSignaturesAndSecretsMatchTheOneShotCalls) {
  const SuitePtr suite = GetParam().make();
  ASSERT_LE(suite->signature_size(), Signature::kCapacity);
  Rng rng(21);
  const KeyPair kp = suite->keygen(rng);
  const KeyPair other = suite->keygen(rng);
  const SigningKeyPtr signer = suite->prepare_signing_key(kp.secret_key);
  const PublicKeyPtr key = suite->prepare_public_key(kp.public_key);
  const PublicKeyPtr other_key = suite->prepare_public_key(other.public_key);

  const Bytes msg = to_bytes("FQ_RESP, declarer 4, toward 9");
  const Signature sig = signer->sign(msg);
  const Bytes one_shot = suite->sign(kp.secret_key, msg);
  EXPECT_EQ(Bytes(sig.view().begin(), sig.view().end()), one_shot);
  EXPECT_EQ(sig.size(), suite->signature_size());

  Bytes tampered = one_shot;
  tampered[tampered.size() / 2] ^= 0x40;
  Bytes short_key = kp.public_key;
  short_key.pop_back();
  Bytes long_key = kp.public_key;
  long_key.push_back(0);
  struct Case {
    std::string name;
    Bytes public_key;
    Bytes signature;
    bool expect;
  };
  std::vector<Case> cases = {
      {"right key", kp.public_key, one_shot, true},
      {"tampered signature", kp.public_key, tampered, false},
      {"wrong key", other.public_key, one_shot, false},
      {"public key one byte short", short_key, one_shot, false},
      {"public key one byte long", long_key, one_shot, false},
  };
  for (const std::size_t n : {0u, 31u, 33u, 63u, 64u, 65u}) {
    Bytes resized = one_shot;
    resized.resize(n, 0x5a);
    if (n == one_shot.size()) continue;  // the right signature, already a case
    cases.push_back({"signature length " + std::to_string(n), kp.public_key, resized, false});
  }
  for (const Case& c : cases) {
    const bool verdict = suite->verify(c.public_key, msg, c.signature);
    EXPECT_EQ(suite->prepare_public_key(c.public_key)->verify(msg, c.signature), verdict)
        << c.name;
    EXPECT_EQ(verdict, c.expect) << c.name;
  }
  EXPECT_TRUE(key->verify(msg, sig.view()));
  EXPECT_FALSE(other_key->verify(msg, sig.view()));

  // DH toward a prepared key is the one-shot secret, from either side.
  EXPECT_EQ(other_key->shared_secret(kp.secret_key),
            suite->shared_secret(kp.secret_key, other.public_key));
  EXPECT_EQ(key->shared_secret(other.secret_key),
            suite->shared_secret(kp.secret_key, other.public_key));

  // A roster verifies through keys it prepares; an unknown node verifies
  // nothing.
  const Authority authority(suite, rng);
  const NodeIdentity node(suite, NodeId(2), authority, rng);
  proto::Roster roster(suite);
  roster.add(node.certificate());
  const Signature node_sig = node.sign(msg);
  EXPECT_TRUE(roster.verify(NodeId(2), msg, node_sig.view()));
  EXPECT_FALSE(roster.verify(NodeId(3), msg, node_sig.view()));
  EXPECT_FALSE(roster.verify(NodeId(7), msg, node_sig.view()));
}

INSTANTIATE_TEST_SUITE_P(
    AllSuites, PreparedKeys,
    ::testing::Values(
        SuiteMaker{"fast", [] { return make_fast_suite(0x5eed); }},
        SuiteMaker{"schnorr_rs", [] { return make_schnorr_rs_suite(SchnorrGroup::small_group()); }},
        SuiteMaker{"oracle_fast", [] { return oracle::fast_suite(0x5eed); }},
        SuiteMaker{"oracle_schnorr_rs",
                   [] { return oracle::schnorr_rs_suite(SchnorrGroup::small_group()); }}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(FastSuite, DifferentSeedsCannotCrossVerify) {
  // A signature made under one suite seed must not verify under another:
  // the seed plays the role of the unforgeability assumption.
  const SuitePtr s1 = make_fast_suite(1);
  const SuitePtr s2 = make_fast_suite(2);
  Rng rng(10);
  const KeyPair kp = s1->keygen(rng);
  const Bytes sig = s1->sign(kp.secret_key, to_bytes("m"));
  EXPECT_FALSE(s2->verify(kp.public_key, to_bytes("m"), sig));
  EXPECT_FALSE(s2->prepare_public_key(kp.public_key)->verify(to_bytes("m"), sig));
  // Signing reads only the secret key's MAC half, whichever suite signs or
  // prepares the key: the public half would give s2's K_pub instead.
  EXPECT_EQ(s2->sign(kp.secret_key, to_bytes("m")), sig);
  EXPECT_EQ(s2->prepare_signing_key(kp.secret_key)->sign(to_bytes("m")), Signature(sig));
  EXPECT_EQ(sig, digest_bytes(hmac_sha256(BytesView(kp.secret_key).subspan(32), to_bytes("m"))));
}

TEST(SharedSuite, ConcurrentSignVerifyMatchesSingleThreadedRun) {
  // One (R,s) suite and one FastSuite, each shared by 4 threads whose key
  // ranges overlap. The threads share the public keys prepared once from the
  // shared suite, prepare their signing keys from it, and mix prepared and
  // one-shot calls. Every signature and verdict must equal a single-threaded
  // run on a fresh suite.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kKeys = 32;
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
    // tampered copy, and the neighbouring key. Even steps sign and check the
    // right key through prepared keys, odd steps one-shot; the neighbour is
    // checked the other way round.
    const auto prepare_all = [&](const Suite& suite) {
      std::vector<PublicKeyPtr> prepared;
      for (const KeyPair& kp : keys) prepared.push_back(suite.prepare_public_key(kp.public_key));
      return prepared;
    };
    const auto work = [&](const Suite& suite, const std::vector<PublicKeyPtr>& public_keys,
                          std::size_t t, std::vector<Bytes>& sigs, std::vector<char>& verdicts) {
      for (std::size_t j = 0; j < kSpan; ++j) {
        const std::size_t i = (t * kKeys / kThreads + j) % kKeys;
        const KeyPair& next = keys[(i + 1) % kKeys];
        Writer w;
        w.u32(static_cast<std::uint32_t>(i));
        const Bytes msg = std::move(w).take();
        const bool prepared = j % 2 == 0;
        Bytes sig;
        if (prepared) {
          const Signature s = suite.prepare_signing_key(keys[i].secret_key)->sign(msg);
          sig.assign(s.view().begin(), s.view().end());
        } else {
          sig = suite.sign(keys[i].secret_key, msg);
        }
        Bytes tampered = sig;
        tampered[3] ^= 0x10;
        if (prepared) {
          verdicts.push_back(public_keys[i]->verify(msg, sig));
          verdicts.push_back(public_keys[i]->verify(msg, tampered));
          verdicts.push_back(suite.verify(next.public_key, msg, sig));
        } else {
          verdicts.push_back(suite.verify(keys[i].public_key, msg, sig));
          verdicts.push_back(suite.verify(keys[i].public_key, msg, tampered));
          verdicts.push_back(public_keys[(i + 1) % kKeys]->verify(msg, sig));
        }
        sigs.push_back(std::move(sig));
      }
    };
    std::vector<std::vector<Bytes>> sigs(kThreads);
    std::vector<std::vector<char>> verdicts(kThreads);
    const std::vector<PublicKeyPtr> shared_keys = prepare_all(*shared);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] { work(*shared, shared_keys, t, sigs[t], verdicts[t]); });
    }
    for (auto& th : threads) th.join();

    const SuitePtr fresh = make(schnorr);
    const std::vector<PublicKeyPtr> fresh_keys = prepare_all(*fresh);
    for (std::size_t t = 0; t < kThreads; ++t) {
      std::vector<Bytes> ref_sigs;
      std::vector<char> ref_verdicts;
      work(*fresh, fresh_keys, t, ref_sigs, ref_verdicts);
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
