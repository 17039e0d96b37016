// Fixed-width 256-bit unsigned arithmetic for the discrete-log crypto layer.
//
// Little-endian limb order (limb[0] is least significant). All modular
// routines are value-semantic and allocation-free; performance is adequate
// for protocol simulation (the hot simulation paths use the symmetric
// signature scheme instead, see suite.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "g2g/util/bytes.hpp"
#include "g2g/util/rng.hpp"

namespace g2g::crypto {

struct U256 {
  std::array<std::uint64_t, 4> limb{};

  constexpr U256() = default;
  constexpr explicit U256(std::uint64_t v) : limb{v, 0, 0, 0} {}

  [[nodiscard]] static U256 from_hex(std::string_view hex);
  /// Interpret a big-endian buffer of at most 32 bytes (e.g. a SHA-256
  /// digest); throws DecodeError when it is longer.
  [[nodiscard]] static U256 from_bytes_be(BytesView b);
  [[nodiscard]] Bytes to_bytes_be() const;
  /// The 32 big-endian bytes of to_bytes_be, written in place.
  void write_be(std::span<std::uint8_t, 32> out) const;
  [[nodiscard]] std::string to_hex() const;

  [[nodiscard]] constexpr bool is_zero() const {
    return (limb[0] | limb[1] | limb[2] | limb[3]) == 0;
  }
  [[nodiscard]] bool bit(std::size_t i) const {
    return (limb[i / 64] >> (i % 64)) & 1;
  }
  /// Number of significant bits (0 for zero).
  [[nodiscard]] std::size_t bit_length() const;

  constexpr auto operator<=>(const U256& o) const {
    for (int i = 3; i >= 0; --i) {
      if (limb[i] != o.limb[i]) return limb[i] <=> o.limb[i];
    }
    return std::strong_ordering::equal;
  }
  constexpr bool operator==(const U256&) const = default;
};

struct U512 {
  std::array<std::uint64_t, 8> limb{};

  [[nodiscard]] static U512 from_u256(const U256& v) {
    U512 out;
    for (int i = 0; i < 4; ++i) out.limb[i] = v.limb[i];
    return out;
  }
  [[nodiscard]] bool bit(std::size_t i) const {
    return (limb[i / 64] >> (i % 64)) & 1;
  }
  [[nodiscard]] std::size_t bit_length() const;
};

/// a + b, wrapping; returns carry via out-param variant below.
[[nodiscard]] U256 add(const U256& a, const U256& b, bool& carry);
/// a - b, wrapping; borrow set if a < b.
[[nodiscard]] U256 sub(const U256& a, const U256& b, bool& borrow);
/// Full 256x256 -> 512-bit product.
[[nodiscard]] U512 mul_full(const U256& a, const U256& b);
/// x mod m (m must be nonzero).
[[nodiscard]] U256 mod(const U512& x, const U256& m);
[[nodiscard]] U256 mod(const U256& x, const U256& m);
/// (a + b) mod m; requires a, b < m.
[[nodiscard]] U256 add_mod(const U256& a, const U256& b, const U256& m);
/// (a - b) mod m; requires a, b < m.
[[nodiscard]] U256 sub_mod(const U256& a, const U256& b, const U256& m);
/// (a * b) mod m.
[[nodiscard]] U256 mul_mod(const U256& a, const U256& b, const U256& m);
/// base^exp mod m (square-and-multiply; m must be > 1).
[[nodiscard]] U256 pow_mod(const U256& base, const U256& exp, const U256& m);

/// Uniform value in [0, n) drawn from the deterministic Rng; requires n > 0.
[[nodiscard]] U256 random_below(Rng& rng, const U256& n);

/// Miller–Rabin probabilistic primality test (deterministic enough for
/// parameter generation; `rounds` random bases plus small-prime trial division).
[[nodiscard]] bool is_probable_prime(const U256& n, Rng& rng, int rounds = 24);

}  // namespace g2g::crypto
