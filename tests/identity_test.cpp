#include "g2g/crypto/identity.hpp"

#include <gtest/gtest.h>

#include "g2g/crypto/sealed_box.hpp"

namespace g2g::crypto {
namespace {

class IdentityTest : public ::testing::Test {
 protected:
  SuitePtr suite_ = make_fast_suite(0xCE47);
  Rng rng_{77};
  Authority authority_{suite_, rng_};
};

TEST_F(IdentityTest, CertificateVerifies) {
  const NodeIdentity id(suite_, NodeId(3), authority_, rng_);
  EXPECT_EQ(id.node(), NodeId(3));
  EXPECT_TRUE(check_certificate(*suite_, authority_.public_key(), id.certificate()));
}

TEST_F(IdentityTest, ForgedCertificateRejected) {
  const NodeIdentity id(suite_, NodeId(3), authority_, rng_);
  Certificate forged = id.certificate();
  forged.node = NodeId(4);  // claim another identity under the same key
  EXPECT_FALSE(check_certificate(*suite_, authority_.public_key(), forged));

  Certificate bad_key = id.certificate();
  bad_key.public_key[0] ^= 1;
  EXPECT_FALSE(check_certificate(*suite_, authority_.public_key(), bad_key));
}

TEST_F(IdentityTest, CertificateFromOtherAuthorityRejected) {
  Rng rng2(78);
  const Authority rogue(suite_, rng2);
  const NodeIdentity id(suite_, NodeId(5), rogue, rng2);
  EXPECT_FALSE(check_certificate(*suite_, authority_.public_key(), id.certificate()));
}

TEST_F(IdentityTest, CertificateEncodingRoundTrip) {
  const NodeIdentity id(suite_, NodeId(9), authority_, rng_);
  const Certificate decoded = Certificate::decode(id.certificate().encode());
  EXPECT_EQ(decoded.node, id.certificate().node);
  EXPECT_EQ(decoded.public_key, id.certificate().public_key);
  EXPECT_EQ(decoded.authority_signature, id.certificate().authority_signature);
}

TEST_F(IdentityTest, CertificateDecodeRejectsTrailingBytes) {
  // Like every wire decoder, Certificate::decode reads exactly one encoding.
  const NodeIdentity id(suite_, NodeId(3), authority_, rng_);
  for (const std::size_t extra : {1u, 2u}) {
    Bytes b = id.certificate().encode();
    b.insert(b.end(), extra, 0x00);
    EXPECT_THROW((void)Certificate::decode(b), DecodeError) << extra << " trailing bytes";
  }
}

TEST_F(IdentityTest, CertificateDecodeRejectsSignatureBlobPastSixtyFourBytes) {
  // node | public-key blob | authority-signature blob: a 64-byte signature
  // blob decodes, a 65-byte one does not fit a Signature.
  for (const std::size_t n : {std::size_t{64}, std::size_t{65}}) {
    Writer w;
    w.u32(3);
    w.blob(Bytes(32, 0x11));
    w.blob(Bytes(n, 0x22));
    if (n == 64) {
      EXPECT_EQ(Certificate::decode(w.bytes()).authority_signature.size(), 64u);
    } else {
      EXPECT_THROW((void)Certificate::decode(w.bytes()), DecodeError);
    }
  }
}

TEST_F(IdentityTest, SignAndVerifyBetweenIdentities) {
  const NodeIdentity alice(suite_, NodeId(1), authority_, rng_);
  const NodeIdentity bob(suite_, NodeId(2), authority_, rng_);
  const Bytes msg = to_bytes("POR");
  const Signature sig = alice.sign(msg);
  EXPECT_TRUE(suite_->prepare_public_key(alice.certificate().public_key)->verify(msg, sig.view()));
  EXPECT_FALSE(suite_->prepare_public_key(bob.certificate().public_key)->verify(msg, sig.view()));
}

TEST_F(IdentityTest, SharedSecretAgreesAcrossIdentities) {
  const NodeIdentity alice(suite_, NodeId(1), authority_, rng_);
  const NodeIdentity bob(suite_, NodeId(2), authority_, rng_);
  EXPECT_EQ(alice.shared_secret_with(bob.certificate().public_key),
            bob.shared_secret_with(alice.certificate().public_key));
}

TEST_F(IdentityTest, OpenBoxDecryptsSealedContent) {
  const NodeIdentity alice(suite_, NodeId(1), authority_, rng_);
  const Bytes plain = to_bytes("inner message");
  const SealedBox box =
      seal(*suite_, rng_, *suite_->prepare_public_key(alice.certificate().public_key), plain);
  EXPECT_EQ(alice.open_box(box), plain);
}

}  // namespace
}  // namespace g2g::crypto
