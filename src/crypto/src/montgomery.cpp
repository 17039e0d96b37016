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
  for (int i = 0; i < 4; ++i) {
    // t += a[i] * b
    std::uint64_t carry = 0;
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
    for (int j = 1; j < 4; ++j) {
      cur = static_cast<unsigned __int128>(u) * m[j] + t[j] + carry;
      t[j - 1] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    cur = static_cast<unsigned __int128>(t[4]) + carry;
    t[3] = static_cast<std::uint64_t>(cur);
    t[4] = t5 + static_cast<std::uint64_t>(cur >> 64);
  }

  // Canonicalize: t < 2m, so one conditional subtract lands in [0, m).
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
  U256 r0 = params.one;
  U256 r1 = base_mont;
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    if (exp.bit(i)) {
      r0 = mont_mul(r0, r1, params);
      r1 = mont_mul(r1, r1, params);
    } else {
      r1 = mont_mul(r0, r1, params);
      r0 = mont_mul(r0, r0, params);
    }
  }
  return r0;
}

U256 pow_mod_fast(const U256& base, const U256& exp, const U256& m) {
  if (!fast_path_enabled() || !m.bit(0) || m == U256(1)) {
    return pow_mod(base, exp, m);
  }
  const MontgomeryParams params = MontgomeryParams::for_modulus(m);
  return from_mont(mont_pow(to_mont(base, params), exp, params), params);
}

}  // namespace g2g::crypto
