// Property tests for the Montgomery-form U256 kernels: representation
// round-trips, ring laws (commutativity / associativity / distributivity)
// inside the Montgomery domain, precomputation invariants, mont_pow at its
// digit boundaries, and Fermat checks for fixed primes. The differential
// corpus against the classic oracle lives in crypto_fastpath_diff_test.cpp;
// this suite pins the algebra that makes the representation sound in the
// first place.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "g2g/crypto/montgomery.hpp"
#include "g2g/crypto/uint256.hpp"
#include "g2g/util/rng.hpp"

namespace g2g::crypto {
namespace {

// Fixed moduli so the suite stays fast (no group generation): the Mersenne
// prime 2^61 - 1, the secp256k1 field prime, and an odd composite with every
// limb saturated (2^256 - 1 = 3 * 5 * 17 * 257 * ...).
const U256 kMersenne61(0x1FFFFFFFFFFFFFFFULL);
U256 secp256k1_prime() {
  return U256::from_hex(
      "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
}
U256 all_ones() {
  return U256::from_hex(
      "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
}

std::vector<U256> property_moduli() {
  return {kMersenne61, secp256k1_prime(), all_ones()};
}

U256 random_residue(Rng& rng, const U256& m) { return random_below(rng, m); }

TEST(MontgomeryProps, PrecomputationInvariantsHold) {
  for (const U256& m : property_moduli()) {
    const MontgomeryParams params = MontgomeryParams::for_modulus(m);
    // n' cancels the low limb: n0inv * m[0] ≡ -1 (mod 2^64).
    EXPECT_EQ(params.n0inv * m.limb[0] + 1, 0u) << m.to_hex();
    // one and rr are the canonical residues of R and R^2.
    U512 r;
    r.limb[4] = 1;
    EXPECT_EQ(params.one, mod(r, m)) << m.to_hex();
    EXPECT_EQ(params.rr, mul_mod(params.one, params.one, m)) << m.to_hex();
    EXPECT_LT(params.one, m);
    EXPECT_LT(params.rr, m);
  }
}

TEST(MontgomeryProps, RoundTripIsTheIdentityBelowTheModulus) {
  Rng rng(0x2007D);
  for (const U256& m : property_moduli()) {
    const MontgomeryParams params = MontgomeryParams::for_modulus(m);
    bool borrow = false;
    std::vector<U256> xs{U256(0), U256(1), sub(m, U256(1), borrow)};
    for (int i = 0; i < 20; ++i) xs.push_back(random_residue(rng, m));
    for (const U256& x : xs) {
      EXPECT_EQ(from_mont(to_mont(x, params), params), x) << x.to_hex();
      // The map is a bijection on [0, m): the reverse composition is the
      // identity too.
      EXPECT_EQ(to_mont(from_mont(x, params), params), x) << x.to_hex();
    }
  }
}

TEST(MontgomeryProps, MontMulCommutesAndAssociates) {
  Rng rng(0xA550C);
  for (const U256& m : property_moduli()) {
    const MontgomeryParams params = MontgomeryParams::for_modulus(m);
    for (int i = 0; i < 15; ++i) {
      const U256 a = to_mont(random_residue(rng, m), params);
      const U256 b = to_mont(random_residue(rng, m), params);
      const U256 c = to_mont(random_residue(rng, m), params);
      EXPECT_EQ(mont_mul(a, b, params), mont_mul(b, a, params));
      EXPECT_EQ(mont_mul(mont_mul(a, b, params), c, params),
                mont_mul(a, mont_mul(b, c, params), params));
    }
  }
}

TEST(MontgomeryProps, MontMulDistributesOverAddMod) {
  // The Montgomery map is linear, so addition works directly on domain
  // values and multiplication distributes across it.
  Rng rng(0xD157);
  for (const U256& m : property_moduli()) {
    const MontgomeryParams params = MontgomeryParams::for_modulus(m);
    for (int i = 0; i < 15; ++i) {
      const U256 a = to_mont(random_residue(rng, m), params);
      const U256 b = to_mont(random_residue(rng, m), params);
      const U256 c = to_mont(random_residue(rng, m), params);
      EXPECT_EQ(mont_mul(a, add_mod(b, c, m), params),
                add_mod(mont_mul(a, b, params), mont_mul(a, c, params), m));
    }
  }
}

TEST(MontgomeryProps, MontOneIsTheMultiplicativeIdentity) {
  Rng rng(0x1D);
  for (const U256& m : property_moduli()) {
    const MontgomeryParams params = MontgomeryParams::for_modulus(m);
    for (int i = 0; i < 10; ++i) {
      const U256 x = to_mont(random_residue(rng, m), params);
      EXPECT_EQ(mont_mul(x, params.one, params), x);
    }
  }
}

TEST(MontgomeryProps, MontPowEdgeExponents) {
  // x^0 is one, and every exponent at a digit or limb boundary is its
  // predecessor's power times x, so mont_pow agrees with itself across the
  // points where its digit chain changes shape.
  Rng rng(0x1ADDE);
  const std::vector<U256> boundaries{
      U256(1), U256(2), U256(15), U256(16), U256(17), U256(0xFFFFFFFFFFFFFFFFULL),
      U256::from_hex("10000000000000000"),
      U256::from_hex("ffffffffffffffffffffffffffffffffffffffff"),
      U256::from_hex("8000000000000000000000000000000000000000000000000000000000000000"),
      all_ones()};
  for (const U256& m : property_moduli()) {
    const MontgomeryParams params = MontgomeryParams::for_modulus(m);
    const U256 x = to_mont(random_residue(rng, m), params);
    EXPECT_EQ(mont_pow(x, U256(0), params), params.one);
    EXPECT_EQ(mont_pow(x, U256(1), params), x);
    for (const U256& e : boundaries) {
      bool borrow = false;
      const U256 prev = sub(e, U256(1), borrow);
      EXPECT_EQ(mont_pow(x, e, params), mont_mul(mont_pow(x, prev, params), x, params))
          << e.to_hex() << " mod " << m.to_hex();
    }
  }
}

TEST(MontgomeryProps, FermatLittleTheoremForFixedPrimes) {
  Rng rng(0xFE12A7);
  bool borrow = false;
  for (const U256& p : {kMersenne61, secp256k1_prime()}) {
    const MontgomeryParams params = MontgomeryParams::for_modulus(p);
    const U256 p_minus_1 = sub(p, U256(1), borrow);
    for (int i = 0; i < 5; ++i) {
      U256 a = random_residue(rng, p);
      if (a.is_zero()) a = U256(2);
      // a^(p-1) ≡ 1 (mod p), through mont_pow, through pow_mod_fast and
      // through the schoolbook pow_mod.
      EXPECT_EQ(from_mont(mont_pow(to_mont(a, params), p_minus_1, params), params), U256(1))
          << a.to_hex();
      EXPECT_EQ(pow_mod_fast(a, p_minus_1, p), U256(1)) << a.to_hex();
      EXPECT_EQ(pow_mod(a, p_minus_1, p), U256(1)) << a.to_hex();
    }
  }
}

}  // namespace
}  // namespace g2g::crypto
