#include "g2g/crypto/montgomery.hpp"

#include <array>
#include <stdexcept>

#include "g2g/crypto/fastpath.hpp"

// The MULX/ADCX/ADOX kernel is GCC-style inline asm for x86-64; other
// targets build only the C kernel.
#if defined(__x86_64__) && defined(__GNUC__)
#define G2G_MONT_MUL_ADX 1
#else
#define G2G_MONT_MUL_ADX 0
#endif

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

#if G2G_MONT_MUL_ADX

// The asm kernel's text. Six registers r0..r5 hold the working value t; its
// limb k lives in r[(i + k) mod 6] during round i, so the CIOS shift by one
// limb is a change of names, and the limb a reduction clears (zero by
// construction) is the next round's fresh top limb.
//
// MULADD(ptr, T0..T5): t += rdx · ptr[0..3]. Low product halves go into
// T0..T3 on the ADCX chain (CF), high halves into T1..T4 on the ADOX chain
// (OF); then OF folds into T5, and CF into T4 and on into T5. T5 is zero
// on entry to a product pass and holds the product's top limb on entry to
// the reduction pass. xor clears both flags and the zero register z.
#define G2G_MONT_MULADD(ptr, T0, T1, T2, T3, T4, T5) \
  "xorl %k[z], %k[z]\n\t"                            \
  "mulxq 0(%[" ptr "]), %[lo], %[hi]\n\t"            \
  "adcxq %[lo], %[" #T0 "]\n\t"                      \
  "adoxq %[hi], %[" #T1 "]\n\t"                      \
  "mulxq 8(%[" ptr "]), %[lo], %[hi]\n\t"            \
  "adcxq %[lo], %[" #T1 "]\n\t"                      \
  "adoxq %[hi], %[" #T2 "]\n\t"                      \
  "mulxq 16(%[" ptr "]), %[lo], %[hi]\n\t"           \
  "adcxq %[lo], %[" #T2 "]\n\t"                      \
  "adoxq %[hi], %[" #T3 "]\n\t"                      \
  "mulxq 24(%[" ptr "]), %[lo], %[hi]\n\t"           \
  "adcxq %[lo], %[" #T3 "]\n\t"                      \
  "adoxq %[hi], %[" #T4 "]\n\t"                      \
  "adoxq %[z], %[" #T5 "]\n\t"                       \
  "adcxq %[z], %[" #T4 "]\n\t"                       \
  "adcxq %[z], %[" #T5 "]\n\t"

// REDUCE: u = t0 · n0inv, t += u · m. The low limb becomes zero, so the
// value t / 2^64 sits in T1..T5.
#define G2G_MONT_REDUCE(T0, T1, T2, T3, T4, T5) \
  "movq %[" #T0 "], %%rdx\n\t"                  \
  "imulq %[n0], %%rdx\n\t"                      \
  G2G_MONT_MULADD("m", T0, T1, T2, T3, T4, T5)

// Round 0 starts from t = 0: t = a[0] · b on one ordinary ADD/ADC chain.
#define G2G_MONT_FIRST(T0, T1, T2, T3, T4, T5)          \
  "movq 0(%[a]), %%rdx\n\t"                           \
  "mulxq 0(%[b]), %[" #T0 "], %[" #T1 "]\n\t"         \
  "mulxq 8(%[b]), %[lo], %[" #T2 "]\n\t"              \
  "addq %[lo], %[" #T1 "]\n\t"                        \
  "mulxq 16(%[b]), %[lo], %[" #T3 "]\n\t"             \
  "adcq %[lo], %[" #T2 "]\n\t"                        \
  "mulxq 24(%[b]), %[lo], %[" #T4 "]\n\t"             \
  "adcq %[lo], %[" #T3 "]\n\t"                        \
  "adcq $0, %[" #T4 "]\n\t"                           \
  "xorl %k[" #T5 "], %k[" #T5 "]\n\t"                 \
  G2G_MONT_REDUCE(T0, T1, T2, T3, T4, T5)

#define G2G_MONT_ROUND(i, T0, T1, T2, T3, T4, T5) \
  "movq " #i "*8(%[a]), %%rdx\n\t"               \
  G2G_MONT_MULADD("b", T0, T1, T2, T3, T4, T5)     \
  G2G_MONT_REDUCE(T0, T1, T2, T3, T4, T5)

[[gnu::always_inline]] inline U256 adx_kernel(const U256& a, const U256& b,
                                               const MontgomeryParams& params) {
  // After four rounds t < 2m sits in r4, r5, r0, r1 and r2 (the 257th bit).
  // t - m is formed in lo, hi, z and rdx; when it does not borrow, CMOVNC
  // takes it.
  std::uint64_t r0 = 0;
  std::uint64_t r1 = 0;
  std::uint64_t r2 = 0;
  std::uint64_t r3 = 0;
  std::uint64_t r4 = 0;
  std::uint64_t r5 = 0;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::uint64_t z = 0;
  __asm__(
      G2G_MONT_FIRST(r0, r1, r2, r3, r4, r5)
      G2G_MONT_ROUND(1, r1, r2, r3, r4, r5, r0)
      G2G_MONT_ROUND(2, r2, r3, r4, r5, r0, r1)
      G2G_MONT_ROUND(3, r3, r4, r5, r0, r1, r2)
      "movq %[r4], %[lo]\n\t"
      "subq 0(%[m]), %[lo]\n\t"
      "movq %[r5], %[hi]\n\t"
      "sbbq 8(%[m]), %[hi]\n\t"
      "movq %[r0], %[z]\n\t"
      "sbbq 16(%[m]), %[z]\n\t"
      "movq %[r1], %%rdx\n\t"
      "sbbq 24(%[m]), %%rdx\n\t"
      "sbbq $0, %[r2]\n\t"
      "cmovncq %[lo], %[r4]\n\t"
      "cmovncq %[hi], %[r5]\n\t"
      "cmovncq %[z], %[r0]\n\t"
      "cmovncq %%rdx, %[r1]\n\t"
      : [r0] "=&r"(r0), [r1] "=&r"(r1), [r2] "=&r"(r2), [r3] "=&r"(r3), [r4] "=&r"(r4),
        [r5] "=&r"(r5), [lo] "=&r"(lo), [hi] "=&r"(hi), [z] "=&r"(z)
      : [a] "r"(a.limb.data()), [b] "r"(b.limb.data()), [m] "r"(params.m.limb.data()),
        [n0] "m"(params.n0inv), "m"(a.limb), "m"(b.limb), "m"(params.m.limb)
      : "rdx", "cc");
  U256 out;
  out.limb = {r4, r5, r0, r1};
  return out;
}

#undef G2G_MONT_ROUND
#undef G2G_MONT_FIRST
#undef G2G_MONT_REDUCE
#undef G2G_MONT_MULADD

#endif

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
#if G2G_MONT_MUL_ADX
  static const bool adx = adx_available();
  if (adx) return adx_kernel(a, b, params);
#endif
  return mont_mul_portable(a, b, params);
}

U256 mont_mul_adx(const U256& a, const U256& b, const MontgomeryParams& params) {
#if G2G_MONT_MUL_ADX
  return adx_kernel(a, b, params);
#else
  (void)a;
  (void)b;
  (void)params;
  throw std::logic_error("mont_mul_adx: this build has no x86-64 asm kernel");
#endif
}

U256 mont_mul_portable(const U256& a, const U256& b, const MontgomeryParams& params) {
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
