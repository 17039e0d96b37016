// Schnorr signatures over a prime-order subgroup of Z_p*.
//
// The paper assumes every node can sign messages with a certified public key
// (it suggests elliptic-curve signatures). We substitute a classic
// finite-field Schnorr scheme: identical protocol role (existentially
// unforgeable signatures for proofs of relay / misbehaviour, certificates),
// different group. Parameters are generated deterministically and are
// simulation-grade, NOT production-secure (see DESIGN.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "g2g/crypto/key_memo.hpp"
#include "g2g/crypto/montgomery.hpp"
#include "g2g/crypto/sha256.hpp"
#include "g2g/crypto/uint256.hpp"
#include "g2g/util/bytes.hpp"
#include "g2g/util/rng.hpp"

namespace g2g::crypto {

/// Group parameters: p prime, q prime dividing p-1, g of order q.
struct SchnorrGroup {
  U256 p;
  U256 q;
  U256 g;

  /// Deterministically generate a fresh group: q a `q_bits` prime, p = q*m + 1
  /// a `p_bits` prime, g = h^((p-1)/q) != 1.
  [[nodiscard]] static SchnorrGroup generate(std::size_t p_bits, std::size_t q_bits,
                                             std::uint64_t seed);

  /// Lazily-generated default group (p: 256 bits, q: 160 bits, fixed seed).
  [[nodiscard]] static const SchnorrGroup& default_group();
  /// Smaller group (p: 128 bits, q: 96 bits) for cheap test sweeps.
  [[nodiscard]] static const SchnorrGroup& small_group();

  /// Sanity checks: p, q prime; q | p-1; g^q = 1; g != 1.
  [[nodiscard]] bool valid(Rng& rng) const;
};

struct SchnorrKeyPair {
  U256 secret;      ///< x in [1, q)
  U256 public_key;  ///< y = g^x mod p
};

struct SchnorrSignature {
  U256 e;  ///< challenge  e = H(r || m) mod q
  U256 s;  ///< response   s = (k - x*e) mod q

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static SchnorrSignature decode(BytesView b);
};

/// (R, s)-form Schnorr signature: transmits the commitment R = g^k instead of
/// the challenge e = H(R || m). Same (k, e, s) triple as SchnorrSignature for
/// the same secret/nonce — only the wire representation differs; the verifier
/// checks the group equation g^s * y^e == R directly.
struct SchnorrSignatureRS {
  U256 r;  ///< commitment R = g^k mod p
  U256 s;  ///< response   s = (k - x*e) mod q, with e = H(R || m) mod q

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static SchnorrSignatureRS decode(BytesView b);
};

[[nodiscard]] SchnorrKeyPair schnorr_keygen(const SchnorrGroup& group, Rng& rng);
[[nodiscard]] SchnorrSignature schnorr_sign(const SchnorrGroup& group, const U256& secret,
                                            BytesView message, Rng& rng);
[[nodiscard]] bool schnorr_verify(const SchnorrGroup& group, const U256& public_key,
                                  BytesView message, const SchnorrSignature& sig);

[[nodiscard]] SchnorrSignatureRS schnorr_rs_sign(const SchnorrGroup& group, const U256& secret,
                                                 BytesView message, Rng& rng);
[[nodiscard]] bool schnorr_rs_verify(const SchnorrGroup& group, const U256& public_key,
                                     BytesView message, const SchnorrSignatureRS& sig);

/// Static Diffie–Hellman over the same group: both parties compute
/// g^(x_a * x_b); the result feeds the session-key KDF (chacha20.hpp).
[[nodiscard]] U256 dh_shared_secret(const SchnorrGroup& group, const U256& my_secret,
                                    const U256& peer_public);

/// Precomputed fixed-base exponentiation in the Montgomery domain, with
/// windows of `window_bits` bits: entry (w, d) = base^(d · 2^(window_bits·w))
/// in Montgomery form, stored as one flat vector of windows × 2^window_bits
/// entries. pow(e) is one mont_mul per nonzero digit of e after the first,
/// plus one from_mont — ~n/w multiplies for an n-bit exponent instead of the
/// ~n squarings + ~n/2 multiplies of square-and-multiply. Exact: the result
/// is bit-identical to pow_mod(base, e, m).
///
/// pow() always runs the Montgomery chain, so callers gate the table on the
/// fast path themselves (SchnorrEngine does).
class FixedBaseTable {
 public:
  FixedBaseTable() = default;
  /// Windows covering exponents up to `exp_bits` bits (rounded up to whole
  /// windows), built directly with mont_mul; any base ≥ m is reduced. The
  /// width must divide 64, so a digit never straddles a limb, and be at most
  /// 16; `exp_bits` at most 256. Throws std::invalid_argument otherwise.
  /// Width 8 over a 160-bit exponent is 20 windows × 256 entries ≈ 160 KB,
  /// width 4 is 40 × 16 ≈ 20 KB.
  FixedBaseTable(const U256& base, const MontgomeryParams& params, std::size_t exp_bits,
                 unsigned window_bits);

  /// base^exponent mod m, canonical. The exponent must fit in the built
  /// windows (exponent.bit_length() <= exp_bits()).
  [[nodiscard]] U256 pow(const U256& exponent) const;
  /// Multiply base^exponent into `acc`, a Montgomery-form product that stays
  /// empty (nullopt) until its first factor: the first nonzero digit's entry
  /// is taken as-is rather than multiplied into one. Same exponent bound as
  /// pow(). Lets several tables share one accumulator and one from_mont.
  void mul_into(std::optional<U256>& acc, const U256& exponent) const;
  /// Window `w`'s entry for the exponent's digit d there, base^(d ·
  /// 2^(window_bits·w)) in Montgomery form, or nullptr when d is zero.
  /// Requires w < windows(); mul_into multiplies these for every window.
  [[nodiscard]] const U256* factor(std::size_t w, const U256& exponent) const;
  [[nodiscard]] std::size_t windows() const { return windows_; }
  [[nodiscard]] std::size_t exp_bits() const { return windows_ * window_bits_; }

 private:
  MontgomeryParams params_;
  unsigned window_bits_ = 0;
  std::size_t windows_ = 0;
  std::vector<U256> entries_;  // window w's 2^window_bits entries, then w+1's
};

/// Per-group precomputation for the hot Schnorr operations: an 8-bit
/// fixed-base table for g sized to exponents mod q (keygen's g^x, sign's
/// g^k, verify's g^s are all bounded by q), cached MontgomeryParams for p
/// and q (products, DH, and the challenge reduction), and a memo of 4-bit
/// per-public-key window tables for the variable-base y^e of verification.
/// Produces byte-identical keys/signatures/verdicts/secrets to the free
/// functions above — the accelerators only change how each canonical residue
/// is computed. When the global fast path is off, every operation falls back
/// to the reference pow_mod/mul_mod/mod route.
///
/// Thread-safe: the g table is immutable after construction and the
/// key-table memo is a KeyMemo (key_memo.hpp), so one engine can serve
/// concurrent runs.
class SchnorrEngine {
 public:
  explicit SchnorrEngine(const SchnorrGroup& group);

  [[nodiscard]] const SchnorrGroup& group() const { return group_; }
  [[nodiscard]] SchnorrKeyPair keygen(Rng& rng) const;
  [[nodiscard]] SchnorrSignature sign(const U256& secret, BytesView message, Rng& rng) const;
  [[nodiscard]] bool verify(const U256& public_key, BytesView message,
                            const SchnorrSignature& sig) const;

  [[nodiscard]] SchnorrSignatureRS sign_rs(const U256& secret, BytesView message, Rng& rng) const;
  [[nodiscard]] bool verify_rs(const U256& public_key, BytesView message,
                               const SchnorrSignatureRS& sig) const;

  /// y^e mod p, the variable-base half of verification. With the fast path
  /// on and e inside q's bit length, y's 4-bit Montgomery window table is
  /// built on first use and memoised by y, so ~40 mont_muls replace the ~210
  /// of mont_pow; otherwise pow_p. y is never range-checked, as in verify:
  /// any U256 gives pow_mod(y, e, p).
  [[nodiscard]] U256 pow_key(const U256& public_key, const U256& exponent) const;
  /// Static DH secret peer_public^my_secret mod p (= dh_shared_secret).
  [[nodiscard]] U256 shared_secret(const U256& my_secret, const U256& peer_public) const;

 private:
  [[nodiscard]] U256 pow_g(const U256& exponent) const;
  /// base^exponent mod p — mont_pow's fixed window when the fast path is on.
  [[nodiscard]] U256 pow_p(const U256& base, const U256& exponent) const;
  /// g^s · y^e mod p for s, e < q: the commitment every verification
  /// recomputes. With the fast path on, one walk over g's table (digits of
  /// s) and y's table (digits of e) fills three independent Montgomery
  /// accumulators — g, y's even windows, y's odd windows — whose product
  /// leaves the domain once; off, pow_mod twice and mul_mod.
  [[nodiscard]] U256 commitment(const U256& public_key, const U256& s, const U256& e) const;
  /// y's memoised 4-bit window table (fast path on, mont_p_ engaged).
  [[nodiscard]] std::shared_ptr<const FixedBaseTable> key_table(const U256& public_key) const;
  /// a*b mod q — one to_mont + one mont_mul when the fast path is on.
  [[nodiscard]] U256 mul_q(const U256& a, const U256& b) const;
  /// e = H(r || m) mod q — one mont_reduce when the fast path is on.
  [[nodiscard]] U256 challenge(const U256& r, BytesView message) const;

  SchnorrGroup group_;
  std::size_t q_bits_ = 0;  // every table covers exponents of q's bit length
  // Cached per-modulus precomputations (engaged iff the modulus is odd, > 1).
  std::optional<MontgomeryParams> mont_p_;
  std::optional<MontgomeryParams> mont_q_;
  FixedBaseTable g_table_;  // empty iff mont_p_ is not engaged
  mutable KeyMemo<FixedBaseTable> key_tables_;
};

}  // namespace g2g::crypto
