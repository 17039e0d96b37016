#include "g2g/crypto/hmac.hpp"

#include <gtest/gtest.h>

namespace g2g::crypto {
namespace {

// RFC 4231 test vectors for HMAC-SHA256.
TEST(HmacSha256, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Digest d = hmac_sha256(key, to_bytes("Hi There"));
  EXPECT_EQ(to_hex(digest_view(d)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  const Digest d = hmac_sha256(to_bytes("Jefe"), to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(to_hex(digest_view(d)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  const Digest d = hmac_sha256(key, data);
  EXPECT_EQ(to_hex(digest_view(d)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, Rfc4231Case4) {
  Bytes key(25);
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i + 1);
  const Bytes data(50, 0xcd);
  EXPECT_EQ(to_hex(digest_view(hmac_sha256(key, data))),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(HmacSha256, Rfc4231Case7LongKeyLongData) {
  // A 131-byte key (hashed first) and 152 bytes of data: two whole blocks in
  // place, then a 24-byte tail.
  const Bytes key(131, 0xaa);
  const Bytes data = to_bytes(
      "This is a test using a larger than block-size key and a larger than block-size data. "
      "The key needs to be hashed before being used by the HMAC algorithm.");
  ASSERT_EQ(data.size(), 152u);
  EXPECT_EQ(to_hex(digest_view(hmac_sha256(key, data))),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(HmacSha256, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  const Digest d = hmac_sha256(key, to_bytes("Test Using Larger Than Block-Size Key - "
                                             "Hash Key First"));
  EXPECT_EQ(to_hex(digest_view(d)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, KeySensitivity) {
  const Bytes msg = to_bytes("message");
  EXPECT_NE(hmac_sha256(to_bytes("key1"), msg), hmac_sha256(to_bytes("key2"), msg));
}

TEST(HeavyHmac, Deterministic) {
  const Bytes msg = to_bytes("the message body");
  const Bytes seed = to_bytes("seed");
  EXPECT_EQ(heavy_hmac(msg, seed, 100), heavy_hmac(msg, seed, 100));
}

TEST(HeavyHmac, IterationCountMatters) {
  const Bytes msg = to_bytes("m");
  const Bytes seed = to_bytes("s");
  EXPECT_NE(heavy_hmac(msg, seed, 10), heavy_hmac(msg, seed, 11));
  EXPECT_NE(heavy_hmac(msg, seed, 0), heavy_hmac(msg, seed, 1));
}

TEST(HeavyHmac, SeedAndMessageSensitivity) {
  EXPECT_NE(heavy_hmac(to_bytes("m1"), to_bytes("s"), 16),
            heavy_hmac(to_bytes("m2"), to_bytes("s"), 16));
  EXPECT_NE(heavy_hmac(to_bytes("m"), to_bytes("s1"), 16),
            heavy_hmac(to_bytes("m"), to_bytes("s2"), 16));
}

TEST(HeavyHmac, ZeroIterationsIsPlainHmac) {
  const Bytes msg = to_bytes("m");
  const Bytes seed = to_bytes("s");
  EXPECT_EQ(heavy_hmac(msg, seed, 0), hmac_sha256(seed, msg));
}

TEST(DigestEqual, ExactComparison) {
  Digest a{};
  Digest b{};
  EXPECT_TRUE(digest_equal(a, b));
  b[31] = 1;
  EXPECT_FALSE(digest_equal(a, b));
  b[31] = 0;
  b[0] = 1;
  EXPECT_FALSE(digest_equal(a, b));
}

}  // namespace
}  // namespace g2g::crypto
