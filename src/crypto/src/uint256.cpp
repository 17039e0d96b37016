#include "g2g/crypto/uint256.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "g2g/crypto/montgomery.hpp"

namespace g2g::crypto {

namespace {

// One big-endian 64-bit word: an 8-byte load or store and a byte swap.
std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap64(v);
  return v;
}

void store_be64(std::uint8_t* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap64(v);
  std::memcpy(p, &v, sizeof(v));
}

// Shift a U512 left by one bit and OR in `in_bit` at the bottom.
void shl1(U512& x, bool in_bit) {
  std::uint64_t carry = in_bit ? 1 : 0;
  for (auto& l : x.limb) {
    const std::uint64_t next = l >> 63;
    l = (l << 1) | carry;
    carry = next;
  }
}

// Compare the low 5 limbs of a U512 against a U256 zero-extended by one limb.
// Used by the shift-subtract reducer, whose remainder fits in 257 bits.
int cmp_rem(const U512& r, const U256& m) {
  if (r.limb[4] != 0) return 1;
  for (int i = 3; i >= 0; --i) {
    if (r.limb[i] != m.limb[i]) return r.limb[i] < m.limb[i] ? -1 : 1;
  }
  return 0;
}

void sub_rem(U512& r, const U256& m) {
  unsigned __int128 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const unsigned __int128 diff =
        static_cast<unsigned __int128>(r.limb[i]) - m.limb[i] - borrow;
    r.limb[i] = static_cast<std::uint64_t>(diff);
    borrow = (diff >> 64) & 1;
  }
  r.limb[4] -= static_cast<std::uint64_t>(borrow);
}

}  // namespace

U256 U256::from_hex(std::string_view hex) {
  U256 out;
  std::size_t bit = 0;
  for (auto it = hex.rbegin(); it != hex.rend(); ++it, bit += 4) {
    const char c = *it;
    std::uint64_t v = 0;
    if (c >= '0' && c <= '9') {
      v = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v = static_cast<std::uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      v = static_cast<std::uint64_t>(c - 'A' + 10);
    } else {
      throw DecodeError("invalid hex digit in U256");
    }
    if (bit >= 256) {
      if (v != 0) throw DecodeError("U256 hex overflow");
      continue;
    }
    out.limb[bit / 64] |= v << (bit % 64);
  }
  return out;
}

U256 U256::from_bytes_be(BytesView b) {
  if (b.size() > 32) throw DecodeError("U256 buffer too long");
  // A shorter buffer is the low end of a zero-padded 32-byte one.
  std::array<std::uint8_t, 32> padded{};
  const std::uint8_t* be = b.data();
  if (b.size() != padded.size()) {
    std::copy(b.begin(), b.end(), padded.end() - static_cast<std::ptrdiff_t>(b.size()));
    be = padded.data();
  }
  U256 out;
  for (std::size_t k = 0; k < 4; ++k) out.limb[3 - k] = load_be64(be + 8 * k);
  return out;
}

Bytes U256::to_bytes_be() const {
  Bytes out(32);
  write_be(std::span<std::uint8_t, 32>(out.data(), 32));
  return out;
}

void U256::write_be(std::span<std::uint8_t, 32> out) const {
  for (std::size_t k = 0; k < 4; ++k) store_be64(out.data() + 8 * k, limb[3 - k]);
}

std::string U256::to_hex() const {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  bool leading = true;
  for (int i = 63; i >= 0; --i) {
    const std::uint64_t nibble = (limb[static_cast<std::size_t>(i) / 16] >>
                                  ((static_cast<std::size_t>(i) % 16) * 4)) &
                                 0xf;
    if (leading && nibble == 0 && i != 0) continue;
    leading = false;
    out.push_back(digits[nibble]);
  }
  return out;
}

std::size_t U256::bit_length() const {
  for (int i = 3; i >= 0; --i) {
    if (limb[static_cast<std::size_t>(i)] != 0) {
      return static_cast<std::size_t>(i) * 64 +
             (64 - static_cast<std::size_t>(std::countl_zero(limb[static_cast<std::size_t>(i)])));
    }
  }
  return 0;
}

std::size_t U512::bit_length() const {
  for (int i = 7; i >= 0; --i) {
    if (limb[static_cast<std::size_t>(i)] != 0) {
      return static_cast<std::size_t>(i) * 64 +
             (64 - static_cast<std::size_t>(std::countl_zero(limb[static_cast<std::size_t>(i)])));
    }
  }
  return 0;
}

U256 add(const U256& a, const U256& b, bool& carry) {
  U256 out;
  unsigned __int128 c = 0;
  for (int i = 0; i < 4; ++i) {
    const unsigned __int128 s = static_cast<unsigned __int128>(a.limb[i]) + b.limb[i] + c;
    out.limb[i] = static_cast<std::uint64_t>(s);
    c = s >> 64;
  }
  carry = c != 0;
  return out;
}

U256 sub(const U256& a, const U256& b, bool& borrow) {
  U256 out;
  unsigned __int128 brw = 0;
  for (int i = 0; i < 4; ++i) {
    const unsigned __int128 d = static_cast<unsigned __int128>(a.limb[i]) - b.limb[i] - brw;
    out.limb[i] = static_cast<std::uint64_t>(d);
    brw = (d >> 64) & 1;
  }
  borrow = brw != 0;
  return out;
}

U512 mul_full(const U256& a, const U256& b) {
  U512 out;
  for (int i = 0; i < 4; ++i) {
    std::uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) {
      const unsigned __int128 cur = static_cast<unsigned __int128>(a.limb[i]) * b.limb[j] +
                                    out.limb[i + j] + carry;
      out.limb[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    out.limb[i + 4] = carry;
  }
  return out;
}

U256 mod(const U512& x, const U256& m) {
  if (m.is_zero()) throw std::invalid_argument("mod by zero");
  const std::size_t n = x.bit_length();
  U512 rem{};  // remainder always fits in 257 bits (limbs 0..4)
  for (std::size_t i = n; i-- > 0;) {
    shl1(rem, x.bit(i));
    if (cmp_rem(rem, m) >= 0) sub_rem(rem, m);
  }
  U256 out;
  for (int i = 0; i < 4; ++i) out.limb[i] = rem.limb[i];
  return out;
}

U256 mod(const U256& x, const U256& m) {
  if (x < m) return x;
  return mod(U512::from_u256(x), m);
}

U256 add_mod(const U256& a, const U256& b, const U256& m) {
  bool carry = false;
  U256 s = add(a, b, carry);
  if (carry || s >= m) {
    bool borrow = false;
    s = sub(s, m, borrow);
  }
  return s;
}

U256 sub_mod(const U256& a, const U256& b, const U256& m) {
  bool borrow = false;
  U256 d = sub(a, b, borrow);
  if (borrow) {
    bool carry = false;
    d = add(d, m, carry);
  }
  return d;
}

U256 mul_mod(const U256& a, const U256& b, const U256& m) {
  return mod(mul_full(a, b), m);
}

U256 pow_mod(const U256& base, const U256& exp, const U256& m) {
  if (m == U256(1)) return U256(0);
  U256 result(1);
  U256 b = mod(base, m);
  const std::size_t n = exp.bit_length();
  for (std::size_t i = n; i-- > 0;) {
    result = mul_mod(result, result, m);
    if (exp.bit(i)) result = mul_mod(result, b, m);
  }
  return result;
}

U256 random_below(Rng& rng, const U256& n) {
  if (n.is_zero()) throw std::invalid_argument("random_below(0)");
  const std::size_t bits = n.bit_length();
  const std::size_t limbs = (bits + 63) / 64;
  const std::size_t top_bits = bits - (limbs - 1) * 64;
  const std::uint64_t top_mask = top_bits >= 64 ? ~0ULL : ((1ULL << top_bits) - 1);
  // Rejection sampling over [0, 2^bits): expected < 2 draws.
  for (;;) {
    U256 out;
    for (std::size_t i = 0; i < limbs; ++i) out.limb[i] = rng.next();
    out.limb[limbs - 1] &= top_mask;
    if (out < n) return out;
  }
}

bool is_probable_prime(const U256& n, Rng& rng, int rounds) {
  static constexpr std::uint64_t kSmallPrimes[] = {
      2,  3,  5,  7,  11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
      53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113};
  if (n < U256(2)) return false;
  for (const std::uint64_t p : kSmallPrimes) {
    const U256 pv(p);
    if (n == pv) return true;
    if (mod(n, pv).is_zero()) return false;
  }

  // n - 1 = d * 2^r
  bool borrow = false;
  const U256 n_minus_1 = sub(n, U256(1), borrow);
  U256 d = n_minus_1;
  std::size_t r = 0;
  while (!d.bit(0)) {
    // d >>= 1
    for (int i = 0; i < 4; ++i) {
      d.limb[i] >>= 1;
      if (i < 3) d.limb[i] |= d.limb[i + 1] << 63;
    }
    ++r;
  }

  for (int round = 0; round < rounds; ++round) {
    bool b2 = false;
    const U256 a = add_mod(random_below(rng, sub(n, U256(3), b2)), U256(2), n);
    // is_probable_prime is a consumer of the arithmetic, not one of the
    // oracle primitives above — n is odd here (evens fell to trial division),
    // so the witness power may take mont_pow.
    U256 x = pow_mod_fast(a, d, n);
    if (x == U256(1) || x == n_minus_1) continue;
    bool witness = true;
    for (std::size_t i = 0; i + 1 < r; ++i) {
      x = mul_mod(x, x, n);
      if (x == n_minus_1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

}  // namespace g2g::crypto
