#include "g2g/crypto/montgomery.hpp"

#include <array>
#include <stdexcept>

#include "g2g/crypto/fastpath.hpp"

namespace g2g::crypto {

namespace {

// -m0^-1 mod 2^64 by Newton–Hensel lifting: for odd m0, x = m0 is correct
// to 3 bits (odd^2 ≡ 1 mod 8), and each x *= 2 - m0*x doubles the count —
// five iterations reach 96 ≥ 64 bits.
std::uint64_t neg_inv64(std::uint64_t m0) {
  std::uint64_t inv = m0;
  for (int i = 0; i < 5; ++i) inv *= std::uint64_t{2} - m0 * inv;
  return ~inv + std::uint64_t{1};
}

// The hex digit of `exp` at bit offset 4·i; a 4-bit window never straddles
// a limb.
unsigned hex_digit(const U256& exp, std::size_t i) {
  const std::size_t bit = 4 * i;
  return static_cast<unsigned>(exp.limb[bit / 64] >> (bit % 64)) & 0xF;
}

}  // namespace

MontgomeryParams MontgomeryParams::for_modulus(const U256& modulus) {
  if (!modulus.bit(0) || modulus == U256(1)) {
    throw std::invalid_argument("MontgomeryParams: modulus must be odd and > 1");
  }
  MontgomeryParams p;
  p.m = modulus;
  p.n0inv = neg_inv64(modulus.limb[0]);
  U512 r;
  r.limb[4] = 1;  // R = 2^256
  p.one = mod(r, modulus);
  p.rr = mul_mod(p.one, p.one, modulus);
  return p;
}

U256 mont_mul(const U256& a, const U256& b, const MontgomeryParams& params) {
  const std::array<std::uint64_t, 4>& m = params.m.limb;
  // CIOS working value: t < b + m throughout, so with one operand < m the
  // pre-subtraction result is < 2m — 257 bits, t[4] ∈ {0,1}.
  std::array<std::uint64_t, 5> t{};
  // The loops are unrolled completely: GCC's -O2 (RelWithDebInfo) keeps
  // them rolled, and then a dependent chain of products runs ~1.5x slower
  // than the unrolled code -O3 emits.
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) {
    // t += a[i] * b
    std::uint64_t carry = 0;
#pragma GCC unroll 4
    for (int j = 0; j < 4; ++j) {
      const unsigned __int128 cur =
          static_cast<unsigned __int128>(a.limb[i]) * b.limb[j] + t[j] + carry;
      t[j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    const unsigned __int128 top = static_cast<unsigned __int128>(t[4]) + carry;
    t[4] = static_cast<std::uint64_t>(top);
    const std::uint64_t t5 = static_cast<std::uint64_t>(top >> 64);

    // t = (t + u*m) / 2^64 with u chosen so the low limb cancels exactly.
    const std::uint64_t u = t[0] * params.n0inv;
    unsigned __int128 cur = static_cast<unsigned __int128>(u) * m[0] + t[0];
    carry = static_cast<std::uint64_t>(cur >> 64);
#pragma GCC unroll 3
    for (int j = 1; j < 4; ++j) {
      cur = static_cast<unsigned __int128>(u) * m[j] + t[j] + carry;
      t[j - 1] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    cur = static_cast<unsigned __int128>(t[4]) + carry;
    t[3] = static_cast<std::uint64_t>(cur);
    t[4] = t5 + static_cast<std::uint64_t>(cur >> 64);
  }

  // Canonicalize: t < 2m, so one conditional subtract lands in [0, m). A
  // branch here is faster than a branch-free select: the chains are
  // dependent products, and the select would put the subtract's borrow on
  // every product's critical path.
  bool ge = t[4] != 0;
  if (!ge) {
    ge = true;
    for (int i = 3; i >= 0; --i) {
      if (t[i] != m[i]) {
        ge = t[i] > m[i];
        break;
      }
    }
  }
  U256 out;
  if (ge) {
    unsigned __int128 borrow = 0;
    for (int i = 0; i < 4; ++i) {
      const unsigned __int128 d =
          static_cast<unsigned __int128>(t[i]) - m[i] - borrow;
      out.limb[i] = static_cast<std::uint64_t>(d);
      borrow = (d >> 64) & 1;
    }
  } else {
    for (int i = 0; i < 4; ++i) out.limb[i] = t[i];
  }
  return out;
}

U256 to_mont(const U256& x, const MontgomeryParams& params) {
  return mont_mul(x, params.rr, params);
}

U256 from_mont(const U256& x, const MontgomeryParams& params) {
  return mont_mul(x, U256(1), params);
}

U256 mont_reduce(const U256& x, const MontgomeryParams& params) {
  // params.one < m satisfies mont_mul's one-operand bound, so x may be any U256.
  return mont_mul(x, params.one, params);
}

U256 mont_pow(const U256& base_mont, const U256& exp, const MontgomeryParams& params) {
  const std::size_t digits = (exp.bit_length() + 3) / 4;
  if (digits == 0) return params.one;
  std::array<U256, 16> powers;  // base^d in the domain
  powers[0] = params.one;
  powers[1] = base_mont;
  for (std::size_t d = 2; d < powers.size(); ++d) {
    powers[d] = mont_mul(powers[d - 1], base_mont, params);
  }
  // The top digit is nonzero, so the chain starts from its power.
  U256 result = powers[hex_digit(exp, digits - 1)];
  for (std::size_t i = digits - 1; i-- > 0;) {
    for (int k = 0; k < 4; ++k) result = mont_mul(result, result, params);
    const unsigned d = hex_digit(exp, i);
    if (d != 0) result = mont_mul(result, powers[d], params);
  }
  return result;
}

U256 pow_mod_fast(const U256& base, const U256& exp, const U256& m) {
  if (!fast_path_enabled() || !m.bit(0) || m == U256(1)) {
    return pow_mod(base, exp, m);
  }
  const MontgomeryParams params = MontgomeryParams::for_modulus(m);
  return from_mont(mont_pow(to_mont(base, params), exp, params), params);
}

}  // namespace g2g::crypto
