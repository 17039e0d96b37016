#include "g2g/crypto/uint256.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

namespace g2g::crypto {
namespace {

TEST(U256, HexRoundTrip) {
  const U256 v = U256::from_hex("deadbeef00112233445566778899aabbccddeeff0123456789abcdef");
  EXPECT_EQ(v.to_hex(), "deadbeef00112233445566778899aabbccddeeff0123456789abcdef");
  EXPECT_EQ(U256(0).to_hex(), "0");
  EXPECT_EQ(U256(255).to_hex(), "ff");
}

TEST(U256, HexRejectsBadInput) {
  EXPECT_THROW((void)U256::from_hex("xyz"), DecodeError);
  // 65 hex digits with a nonzero top nibble overflow.
  EXPECT_THROW((void)U256::from_hex(std::string(65, 'f')), DecodeError);
  // Leading zeros beyond 64 digits are fine.
  EXPECT_EQ(U256::from_hex("0" + std::string(64, '1')).to_hex(), std::string(64, '1'));
}

TEST(U256, BytesBeRoundTrip) {
  const U256 v = U256::from_hex("0102030405060708090a0b0c0d0e0f10");
  const Bytes b = v.to_bytes_be();
  ASSERT_EQ(b.size(), 32u);
  EXPECT_EQ(U256::from_bytes_be(b), v);
  EXPECT_EQ(b[31], 0x10);
  EXPECT_EQ(b[16], 0x01);
  EXPECT_EQ(b[0], 0x00);
}

TEST(U256, BytesBeMatchesByteByByteAtEveryLength) {
  // The conversions move 8-byte words; the reference walks single bytes.
  // Every buffer length up to 32 is the low end of a 32-byte big-endian
  // value, and 33 bytes are refused.
  Bytes pattern(33);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::uint8_t>(0xA7 * i + 0x3D);
  }
  for (std::size_t n = 0; n <= 32; ++n) {
    const BytesView b(pattern.data(), n);
    U256 expect;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t shift = 8 * (n - 1 - i);
      expect.limb[shift / 64] |= static_cast<std::uint64_t>(b[i]) << (shift % 64);
    }
    const U256 v = U256::from_bytes_be(b);
    EXPECT_EQ(v, expect) << n << " bytes";
    const Bytes out = v.to_bytes_be();
    ASSERT_EQ(out.size(), 32u);
    for (std::size_t i = 0; i < 32; ++i) {
      const std::size_t shift = 8 * (31 - i);
      EXPECT_EQ(out[i], static_cast<std::uint8_t>(expect.limb[shift / 64] >> (shift % 64)))
          << n << " bytes, byte " << i;
    }
    std::array<std::uint8_t, 32> written{};
    v.write_be(written);
    EXPECT_TRUE(std::equal(written.begin(), written.end(), out.begin())) << n << " bytes";
  }
  EXPECT_THROW((void)U256::from_bytes_be(pattern), DecodeError);
}

TEST(U256, Comparisons) {
  const U256 small(5);
  const U256 big = U256::from_hex("100000000000000000");  // 2^68
  EXPECT_LT(small, big);
  EXPECT_GT(big, small);
  EXPECT_EQ(small, U256(5));
  EXPECT_TRUE(U256(0).is_zero());
  EXPECT_FALSE(small.is_zero());
}

TEST(U256, BitLength) {
  EXPECT_EQ(U256(0).bit_length(), 0u);
  EXPECT_EQ(U256(1).bit_length(), 1u);
  EXPECT_EQ(U256(255).bit_length(), 8u);
  EXPECT_EQ(U256(256).bit_length(), 9u);
  EXPECT_EQ(U256::from_hex(std::string(64, 'f')).bit_length(), 256u);
}

TEST(U256, AddWithCarryChains) {
  bool carry = false;
  // (2^64 - 1) + 1 = 2^64: carry propagates into limb 1.
  const U256 v = add(U256(~0ULL), U256(1), carry);
  EXPECT_FALSE(carry);
  EXPECT_EQ(v.to_hex(), "10000000000000000");

  const U256 max = U256::from_hex(std::string(64, 'f'));
  const U256 wrapped = add(max, U256(1), carry);
  EXPECT_TRUE(carry);
  EXPECT_TRUE(wrapped.is_zero());
}

TEST(U256, SubWithBorrow) {
  bool borrow = false;
  const U256 v = sub(U256::from_hex("10000000000000000"), U256(1), borrow);
  EXPECT_FALSE(borrow);
  EXPECT_EQ(v, U256(~0ULL));

  const U256 w = sub(U256(0), U256(1), borrow);
  EXPECT_TRUE(borrow);
  EXPECT_EQ(w.to_hex(), std::string(64, 'f'));
}

TEST(U256, MulFullKnownProduct) {
  // (2^128 - 1)^2 = 2^256 - 2^129 + 1: bit 0 set, bits 129..255 set.
  const U256 v = U256::from_hex(std::string(32, 'f'));
  const U512 p = mul_full(v, v);
  EXPECT_EQ(p.limb[0], 1ULL);
  EXPECT_EQ(p.limb[1], 0ULL);
  EXPECT_EQ(p.limb[2], ~0ULL - 1);  // 0xfffffffffffffffe (bit 128 clear)
  EXPECT_EQ(p.limb[3], ~0ULL);
  EXPECT_EQ(p.limb[4], 0ULL);
  EXPECT_EQ(p.limb[5], 0ULL);
  EXPECT_EQ(p.limb[6], 0ULL);
  EXPECT_EQ(p.limb[7], 0ULL);
}

TEST(U256, ModSmallCases) {
  EXPECT_EQ(mod(U256(100), U256(7)), U256(2));
  EXPECT_EQ(mod(U256(6), U256(7)), U256(6));
  EXPECT_EQ(mod(U256(7), U256(7)), U256(0));
  EXPECT_THROW((void)mod(U256(1), U256(0)), std::invalid_argument);
}

TEST(U256, MulModAgainstNativeIntegers) {
  // Cross-check against __int128 arithmetic for 64-bit operands.
  Rng rng(123);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = rng.next() >> 1;
    const std::uint64_t b = rng.next() >> 1;
    const std::uint64_t m = (rng.next() >> 8) | 1;
    const auto expect =
        static_cast<std::uint64_t>(static_cast<unsigned __int128>(a) * b % m);
    EXPECT_EQ(mul_mod(U256(a), U256(b), U256(m)), U256(expect));
  }
}

TEST(U256, AddSubModIdentities) {
  Rng rng(77);
  const U256 m = U256::from_hex("ffffffffffffffffffffffffffffffff61");  // odd modulus
  for (int i = 0; i < 100; ++i) {
    const U256 a = random_below(rng, m);
    const U256 b = random_below(rng, m);
    const U256 s = add_mod(a, b, m);
    EXPECT_LT(s, m);
    EXPECT_EQ(sub_mod(s, b, m), a);
    EXPECT_EQ(sub_mod(s, a, m), b);
    EXPECT_EQ(add_mod(a, U256(0), m), a);
  }
}

TEST(U256, PowModFermat) {
  // Fermat's little theorem on the Mersenne prime 2^61 - 1.
  const U256 p((1ULL << 61) - 1);
  Rng rng(99);
  for (int i = 0; i < 20; ++i) {
    bool borrow = false;
    const U256 a = add_mod(random_below(rng, sub(p, U256(1), borrow)), U256(1), p);
    EXPECT_EQ(pow_mod(a, sub(p, U256(1), borrow), p), U256(1));
  }
}

TEST(U256, PowModEdgeCases) {
  EXPECT_EQ(pow_mod(U256(5), U256(0), U256(7)), U256(1));
  EXPECT_EQ(pow_mod(U256(5), U256(1), U256(7)), U256(5));
  EXPECT_EQ(pow_mod(U256(2), U256(10), U256(1000000)), U256(1024));
  EXPECT_EQ(pow_mod(U256(9), U256(3), U256(1)), U256(0));  // mod 1
}

TEST(U256, PowModLargeExponentMatchesSquareChain) {
  // a^(2^k) by repeated squaring must agree with pow_mod.
  const U256 m = U256::from_hex("f0000000000000000000000000000001");
  U256 a(12345);
  U256 sq = a;
  for (int k = 1; k <= 100; ++k) sq = mul_mod(sq, sq, m);
  U256 exp;  // 2^100
  exp.limb[1] = 1ULL << 36;
  EXPECT_EQ(pow_mod(a, exp, m), sq);
}

TEST(U256, RandomBelowIsInRangeAndCoversLowValues) {
  Rng rng(5);
  const U256 n(10);
  bool seen[10] = {};
  for (int i = 0; i < 500; ++i) {
    const U256 v = random_below(rng, n);
    ASSERT_LT(v, n);
    seen[v.limb[0]] = true;
  }
  for (const bool s : seen) EXPECT_TRUE(s);
  EXPECT_THROW((void)random_below(rng, U256(0)), std::invalid_argument);
}

TEST(PrimalityTest, KnownPrimes) {
  Rng rng(7);
  for (const std::uint64_t p : {2ULL, 3ULL, 5ULL, 97ULL, 7919ULL, (1ULL << 61) - 1}) {
    EXPECT_TRUE(is_probable_prime(U256(p), rng)) << p;
  }
  // 2^127 - 1 is a Mersenne prime.
  const U256 m127 = U256::from_hex("7fffffffffffffffffffffffffffffff");
  EXPECT_TRUE(is_probable_prime(m127, rng));
}

TEST(PrimalityTest, KnownComposites) {
  Rng rng(8);
  for (const std::uint64_t c :
       {1ULL, 4ULL, 91ULL, 561ULL /* Carmichael */, 6601ULL /* Carmichael */,
        1ULL << 40, 7919ULL * 7927ULL}) {
    EXPECT_FALSE(is_probable_prime(U256(c), rng)) << c;
  }
  // 2^67 - 1 = 193707721 * 761838257287 (Mersenne composite).
  EXPECT_FALSE(is_probable_prime(U256::from_hex("7ffffffffffffffff"), rng));
}

}  // namespace
}  // namespace g2g::crypto
