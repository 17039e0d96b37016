// Montgomery-form arithmetic for U256 (R = 2^256) — the fast path behind
// the modular reductions that dominate Schnorr verification.
//
// A value x is represented in Montgomery form as x·R mod m; mont_mul
// computes a·b·R⁻¹ mod m with the CIOS (coarsely integrated operand
// scanning) word loop — one 64-bit multiply-accumulate pass and one
// reduction pass per limb, no 512-bit shift-subtract division. Converting
// in and out of the form costs one mont_mul each, so it pays off exactly
// where schnorr.cpp uses it: exponentiation chains and window tables that
// stay in the domain across hundreds of multiplies.
//
// Two kernels compute the same CIOS product. mont_mul_adx is x86-64 inline
// asm: MULX for every limb product, and in each pass the low halves ride
// the ADCX (carry flag) chain while the high halves ride the ADOX (overflow
// flag) chain, so two carry chains run side by side; the final subtract is
// a CMOV select. mont_mul_portable is the unrolled C loop. mont_mul picks
// one per process by a cached CPUID check (adx_available in fastpath.hpp):
// the asm wherever BMI2 and ADX exist, the C kernel on other CPUs and on
// non-x86-64 builds, where the asm is not compiled.
//
// Simulation-grade: nothing here claims to run in constant time. mont_pow
// and FixedBaseTable skip zero digits, so their multiply count depends on
// the exponent, and the C kernel's final subtract is a branch.
//
// Oracle layering (docs/TESTING.md): the schoolbook shift-subtract reducer
// in uint256.cpp (mod / mul_mod / pow_mod) is the always-available
// reference; the C CIOS kernel is pinned to it, and the asm kernel to both,
// by the differential corpus in tests/crypto_fastpath_diff_test.cpp, which
// pins every routine below bit for bit. The routines above the kernel are
// a fast path behind crypto::set_fast_path.
//
// Contracts (enforced by the differential corpus, not by runtime checks):
//  * the modulus must be odd and > 1 — for_modulus throws otherwise;
//  * mont_mul requires at least one operand < m (the other may be any
//    U256); both < m is the normal case and what the chains maintain;
//  * to_mont accepts ANY U256 and reduces it (x ≥ m is folded to
//    x mod m — rr < m makes the CIOS bound absorb the excess);
//  * every result is the canonical representative in [0, m), which is what
//    makes the fast path byte-identical to the classic path.
#pragma once

#include "g2g/crypto/uint256.hpp"

namespace g2g::crypto {

/// Per-modulus precomputation for Montgomery arithmetic with R = 2^256.
struct MontgomeryParams {
  U256 m;                    ///< the (odd, > 1) modulus
  std::uint64_t n0inv = 0;   ///< -m⁻¹ mod 2⁶⁴ (Newton–Hensel inverse)
  U256 one;                  ///< R mod m — the Montgomery form of 1
  U256 rr;                   ///< R² mod m — to_mont's multiplier

  /// Precompute for `modulus`; throws std::invalid_argument unless the
  /// modulus is odd and > 1 (Montgomery reduction needs gcd(m, R) = 1).
  [[nodiscard]] static MontgomeryParams for_modulus(const U256& modulus);
};

/// CIOS Montgomery product a·b·R⁻¹ mod m. For Montgomery-form inputs ã, b̃
/// this is the Montgomery form of a·b. Requires at least one operand < m;
/// the result is canonical (< m). Runs mont_mul_adx when adx_available(),
/// mont_mul_portable otherwise.
[[nodiscard]] U256 mont_mul(const U256& a, const U256& b, const MontgomeryParams& params);

/// The C CIOS kernel, same contract as mont_mul: the fallback where the asm
/// kernel cannot run, and its oracle in the differential tests.
[[nodiscard]] U256 mont_mul_portable(const U256& a, const U256& b,
                                     const MontgomeryParams& params);

/// The MULX/ADCX/ADOX kernel, same contract as mont_mul. Only for CPUs where
/// adx_available(); throws std::logic_error on a build without it (not
/// x86-64).
[[nodiscard]] U256 mont_mul_adx(const U256& a, const U256& b, const MontgomeryParams& params);

/// x·R mod m — enter the Montgomery domain. Accepts any U256; values ≥ m
/// are reduced (the result equals to_mont(mod(x, m), params)).
[[nodiscard]] U256 to_mont(const U256& x, const MontgomeryParams& params);

/// x·R⁻¹ mod m — leave the Montgomery domain. Requires x < m (every value
/// produced by mont_mul / to_mont qualifies); canonical result.
[[nodiscard]] U256 from_mont(const U256& x, const MontgomeryParams& params);

/// x mod m for ANY U256 in one mont_mul: x·(R mod m)·R⁻¹ ≡ x. Replaces the
/// schoolbook 512-bit reduction where a hash is mapped into Z_q (the Schnorr
/// challenge); canonical result, equal to mod(x, m).
[[nodiscard]] U256 mont_reduce(const U256& x, const MontgomeryParams& params);

/// base^exp mod m over a Montgomery-form base, by a fixed 4-bit window:
/// base^0..15 in 14 products, then four squarings and at most one multiply
/// per hex digit of exp, from the top (~210 mont_muls for a 160-bit
/// exponent, where a bit-by-bit ladder takes 320). `base_mont` must already
/// be in the domain (< m); the result is in the domain too — from_mont it to
/// compare against pow_mod. A zero exponent gives `one`.
[[nodiscard]] U256 mont_pow(const U256& base_mont, const U256& exp,
                            const MontgomeryParams& params);

/// base^exp mod m through mont_pow when the fast path is on and m is odd
/// and > 1; the classic square-and-multiply pow_mod otherwise.
/// Byte-identical either way — this is the drop-in for pow_mod call sites
/// whose moduli are the (odd) group primes.
[[nodiscard]] U256 pow_mod_fast(const U256& base, const U256& exp, const U256& m);

}  // namespace g2g::crypto
