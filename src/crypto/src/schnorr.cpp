#include "g2g/crypto/schnorr.hpp"

#include <array>
#include <span>
#include <stdexcept>

#include "g2g/crypto/fastpath.hpp"
#include "g2g/crypto/montgomery.hpp"

namespace g2g::crypto {

namespace {

/// Draw a random odd candidate with exactly `bits` bits.
U256 random_odd_with_bits(Rng& rng, std::size_t bits) {
  U256 out;
  const std::size_t limbs = (bits + 63) / 64;
  for (std::size_t i = 0; i < limbs; ++i) out.limb[i] = rng.next();
  const std::size_t top = bits - 1;
  // Clear everything at/above `bits`, then force the top and bottom bits.
  for (std::size_t i = bits; i < 256; ++i) out.limb[i / 64] &= ~(1ULL << (i % 64));
  out.limb[top / 64] |= 1ULL << (top % 64);
  out.limb[0] |= 1;
  return out;
}

/// H(r || m) as a 256-bit integer, before the reduction into Z_q.
U256 challenge_hash(const U256& r, BytesView message) {
  std::array<std::uint8_t, 32> r_bytes{};
  r.write_be(r_bytes);
  const Digest d = sha256(r_bytes, message);
  return U256::from_bytes_be(digest_view(d));
}

/// The 64-byte wire form of both signature forms: two big-endian values.
Bytes encode_pair(const U256& first, const U256& second) {
  Bytes out(64);
  const std::span<std::uint8_t> bytes(out);
  first.write_be(bytes.first<32>());
  second.write_be(bytes.subspan<32, 32>());
  return out;
}

/// Multiply `factor` into a Montgomery accumulator that stays empty until
/// its first factor (FixedBaseTable::mul_into); a null factor is a zero digit.
/// Inlined: the window walks call it once per window.
[[gnu::always_inline]] inline void accumulate(std::optional<U256>& acc, const U256* factor,
                                              const MontgomeryParams& params) {
  if (factor != nullptr) acc = acc ? mont_mul(*acc, *factor, params) : *factor;
}

U256 challenge(const SchnorrGroup& group, const U256& r, BytesView message) {
  return mod(challenge_hash(r, message), group.q);
}

}  // namespace

SchnorrGroup SchnorrGroup::generate(std::size_t p_bits, std::size_t q_bits, std::uint64_t seed) {
  if (p_bits > 256 || q_bits + 2 > p_bits) throw std::invalid_argument("bad group sizes");
  Rng rng(seed);

  // 1. Find a q_bits prime q.
  U256 q = random_odd_with_bits(rng, q_bits);
  while (!is_probable_prime(q, rng)) {
    bool carry = false;
    q = add(q, U256(2), carry);
  }

  // 2. Find m (cofactor, even) such that p = q*m + 1 is prime with p_bits bits.
  const std::size_t m_bits = p_bits - q_bits;
  for (;;) {
    U256 m = random_odd_with_bits(rng, m_bits);
    m.limb[0] &= ~1ULL;  // make even so p is odd
    if (m.is_zero()) continue;
    const U512 pm = mul_full(q, m);
    for (int i = 4; i < 8; ++i) {
      if (pm.limb[i] != 0) throw std::logic_error("p overflowed 256 bits");
    }
    U256 p;
    for (int i = 0; i < 4; ++i) p.limb[i] = pm.limb[i];
    bool carry = false;
    p = add(p, U256(1), carry);
    if (p.bit_length() != p_bits) continue;
    if (!is_probable_prime(p, rng)) continue;

    // 3. Find a generator of the order-q subgroup: g = h^m mod p != 1.
    for (;;) {
      const U256 h = add_mod(random_below(rng, sub_mod(p, U256(3), p)), U256(2), p);
      const U256 g = pow_mod_fast(h, m, p);
      if (g != U256(1) && !g.is_zero()) {
        return SchnorrGroup{p, q, g};
      }
    }
  }
}

const SchnorrGroup& SchnorrGroup::default_group() {
  static const SchnorrGroup group = generate(256, 160, 0x67326721ULL);
  return group;
}

const SchnorrGroup& SchnorrGroup::small_group() {
  static const SchnorrGroup group = generate(128, 96, 0x67326722ULL);
  return group;
}

bool SchnorrGroup::valid(Rng& rng) const {
  if (!is_probable_prime(p, rng) || !is_probable_prime(q, rng)) return false;
  bool borrow = false;
  const U256 p_minus_1 = sub(p, U256(1), borrow);
  // q | p-1  <=>  (p-1) mod q == 0
  if (!mod(p_minus_1, q).is_zero()) return false;
  if (g == U256(1) || g.is_zero()) return false;
  return pow_mod_fast(g, q, p) == U256(1);
}

Bytes SchnorrSignature::encode() const { return encode_pair(e, s); }

SchnorrSignature SchnorrSignature::decode(BytesView b) {
  if (b.size() != 64) throw DecodeError("bad Schnorr signature length");
  return SchnorrSignature{U256::from_bytes_be(b.subspan(0, 32)),
                          U256::from_bytes_be(b.subspan(32, 32))};
}

Bytes SchnorrSignatureRS::encode() const { return encode_pair(r, s); }

SchnorrSignatureRS SchnorrSignatureRS::decode(BytesView b) {
  if (b.size() != 64) throw DecodeError("bad Schnorr (R,s) signature length");
  return SchnorrSignatureRS{U256::from_bytes_be(b.subspan(0, 32)),
                            U256::from_bytes_be(b.subspan(32, 32))};
}

SchnorrKeyPair schnorr_keygen(const SchnorrGroup& group, Rng& rng) {
  bool borrow = false;
  const U256 x = add_mod(random_below(rng, sub(group.q, U256(1), borrow)), U256(1), group.q);
  return SchnorrKeyPair{x, pow_mod_fast(group.g, x, group.p)};
}

SchnorrSignature schnorr_sign(const SchnorrGroup& group, const U256& secret, BytesView message,
                              Rng& rng) {
  bool borrow = false;
  const U256 k = add_mod(random_below(rng, sub(group.q, U256(1), borrow)), U256(1), group.q);
  const U256 r = pow_mod_fast(group.g, k, group.p);
  const U256 e = challenge(group, r, message);
  const U256 s = sub_mod(k, mul_mod(secret, e, group.q), group.q);
  return SchnorrSignature{e, s};
}

bool schnorr_verify(const SchnorrGroup& group, const U256& public_key, BytesView message,
                    const SchnorrSignature& sig) {
  if (sig.e >= group.q || sig.s >= group.q) return false;
  // r' = g^s * y^e mod p;   valid iff H(r' || m) == e
  const U256 gs = pow_mod_fast(group.g, sig.s, group.p);
  const U256 ye = pow_mod_fast(public_key, sig.e, group.p);
  const U256 r = mul_mod(gs, ye, group.p);
  return challenge(group, r, message) == sig.e;
}

SchnorrSignatureRS schnorr_rs_sign(const SchnorrGroup& group, const U256& secret,
                                   BytesView message, Rng& rng) {
  // Same draws and same (k, e, s) as schnorr_sign — only the transmitted pair
  // changes, so the two forms stay interconvertible for the same nonce.
  bool borrow = false;
  const U256 k = add_mod(random_below(rng, sub(group.q, U256(1), borrow)), U256(1), group.q);
  const U256 r = pow_mod_fast(group.g, k, group.p);
  const U256 e = challenge(group, r, message);
  const U256 s = sub_mod(k, mul_mod(secret, e, group.q), group.q);
  return SchnorrSignatureRS{r, s};
}

bool schnorr_rs_verify(const SchnorrGroup& group, const U256& public_key, BytesView message,
                       const SchnorrSignatureRS& sig) {
  if (sig.s >= group.q || sig.r >= group.p || sig.r.is_zero()) return false;
  // e = H(R || m);   valid iff g^s * y^e == R.
  const U256 e = challenge(group, sig.r, message);
  const U256 gs = pow_mod_fast(group.g, sig.s, group.p);
  const U256 ye = pow_mod_fast(public_key, e, group.p);
  return mul_mod(gs, ye, group.p) == sig.r;
}

U256 dh_shared_secret(const SchnorrGroup& group, const U256& my_secret, const U256& peer_public) {
  return pow_mod_fast(peer_public, my_secret, group.p);
}

FixedBaseTable::FixedBaseTable(const U256& base, const MontgomeryParams& params,
                               std::size_t exp_bits, unsigned window_bits)
    : params_(params), window_bits_(window_bits) {
  if (window_bits == 0 || window_bits > 16 || 64 % window_bits != 0 || exp_bits > 256) {
    throw std::invalid_argument("FixedBaseTable: width must divide 64 and be <= 16, bits <= 256");
  }
  const std::size_t per_window = std::size_t{1} << window_bits;
  windows_ = (exp_bits + window_bits - 1) / window_bits;
  entries_.resize(windows_ * per_window);
  U256 cur = to_mont(base, params);  // base^(2^(window_bits·w)) as w advances
  for (std::size_t w = 0; w < windows_; ++w) {
    U256* window = entries_.data() + w * per_window;
    window[0] = params.one;
    window[1] = cur;
    for (std::size_t d = 2; d < per_window; ++d) window[d] = mont_mul(window[d - 1], cur, params);
    cur = mont_mul(window[per_window - 1], cur, params);
  }
}

const U256* FixedBaseTable::factor(std::size_t w, const U256& exponent) const {
  const std::size_t bit = w * window_bits_;
  const std::uint64_t mask = (std::uint64_t{1} << window_bits_) - 1;
  const auto digit = static_cast<std::size_t>((exponent.limb[bit / 64] >> (bit % 64)) & mask);
  return digit == 0 ? nullptr : &entries_[(w << window_bits_) + digit];
}

void FixedBaseTable::mul_into(std::optional<U256>& acc, const U256& exponent) const {
  for (std::size_t w = 0; w < windows_; ++w) accumulate(acc, factor(w, exponent), params_);
}

U256 FixedBaseTable::pow(const U256& exponent) const {
  std::optional<U256> acc;
  mul_into(acc, exponent);
  return acc ? from_mont(*acc, params_) : U256(1);
}

SchnorrEngine::SchnorrEngine(const SchnorrGroup& group)
    : group_(group), q_bits_(group.q.bit_length()) {
  if (group.p.bit(0) && group.p != U256(1)) {
    mont_p_ = MontgomeryParams::for_modulus(group.p);
    g_table_ = FixedBaseTable(group.g, *mont_p_, q_bits_, 8);
  }
  if (group.q.bit(0) && group.q != U256(1)) mont_q_ = MontgomeryParams::for_modulus(group.q);
}

U256 SchnorrEngine::pow_g(const U256& exponent) const {
  if (fast_path_enabled() && mont_p_ && exponent.bit_length() <= q_bits_) {
    return g_table_.pow(exponent);
  }
  return pow_p(group_.g, exponent);
}

U256 SchnorrEngine::pow_p(const U256& base, const U256& exponent) const {
  if (fast_path_enabled() && mont_p_) {
    return from_mont(mont_pow(to_mont(base, *mont_p_), exponent, *mont_p_), *mont_p_);
  }
  return pow_mod(base, exponent, group_.p);
}

std::shared_ptr<const FixedBaseTable> SchnorrEngine::key_table(const U256& public_key) const {
  // Keyed by the value's own bytes: exactly what the table build reads.
  const BytesView key(reinterpret_cast<const std::uint8_t*>(public_key.limb.data()),
                      sizeof(public_key.limb));
  return key_tables_.get(key, [&] { return FixedBaseTable(public_key, *mont_p_, q_bits_, 4); });
}

U256 SchnorrEngine::commitment(const U256& public_key, const U256& s, const U256& e) const {
  if (!fast_path_enabled() || !mont_p_) {
    return mul_mod(pow_mod(group_.g, s, group_.p), pow_mod(public_key, e, group_.p), group_.p);
  }
  // One walk over both tables with three independent accumulators: g's
  // windows, y's even windows and y's odd windows. With an 8-bit g table and
  // a 4-bit y table each step multiplies into all three, so consecutive
  // products do not wait on each other. Each table reads its own digits, so
  // the walk only has to visit every window of each once: when q's bit
  // length is not a multiple of 8, y has one window fewer than twice g's.
  const MontgomeryParams& params = *mont_p_;
  const std::shared_ptr<const FixedBaseTable> y_table = key_table(public_key);
  const std::size_t g_windows = g_table_.windows();
  const std::size_t y_windows = y_table->windows();
  std::optional<U256> acc;
  std::optional<U256> even;
  std::optional<U256> odd;
  for (std::size_t w = 0; w < g_windows || 2 * w < y_windows; ++w) {
    if (w < g_windows) accumulate(acc, g_table_.factor(w, s), params);
    if (2 * w < y_windows) accumulate(even, y_table->factor(2 * w, e), params);
    if (2 * w + 1 < y_windows) accumulate(odd, y_table->factor(2 * w + 1, e), params);
  }
  if (even) accumulate(acc, &*even, params);
  if (odd) accumulate(acc, &*odd, params);
  return acc ? from_mont(*acc, params) : U256(1);
}

U256 SchnorrEngine::mul_q(const U256& a, const U256& b) const {
  if (fast_path_enabled() && mont_q_) return mont_mul(to_mont(a, *mont_q_), b, *mont_q_);
  return mul_mod(a, b, group_.q);
}

U256 SchnorrEngine::challenge(const U256& r, BytesView message) const {
  const U256 h = challenge_hash(r, message);
  if (fast_path_enabled() && mont_q_) return mont_reduce(h, *mont_q_);
  return mod(h, group_.q);
}

U256 SchnorrEngine::pow_key(const U256& public_key, const U256& exponent) const {
  if (!fast_path_enabled() || !mont_p_ || exponent.bit_length() > q_bits_) {
    return pow_p(public_key, exponent);
  }
  return key_table(public_key)->pow(exponent);
}

U256 SchnorrEngine::shared_secret(const U256& my_secret, const U256& peer_public) const {
  return pow_p(peer_public, my_secret);
}

SchnorrKeyPair SchnorrEngine::keygen(Rng& rng) const {
  // Same RNG draws as schnorr_keygen so keys are reproducible either way.
  bool borrow = false;
  const U256 x = add_mod(random_below(rng, sub(group_.q, U256(1), borrow)), U256(1), group_.q);
  return SchnorrKeyPair{x, pow_g(x)};
}

SchnorrSignature SchnorrEngine::sign(const U256& secret, BytesView message, Rng& rng) const {
  bool borrow = false;
  const U256 k = add_mod(random_below(rng, sub(group_.q, U256(1), borrow)), U256(1), group_.q);
  const U256 r = pow_g(k);
  const U256 e = challenge(r, message);
  const U256 s = sub_mod(k, mul_q(secret, e), group_.q);
  return SchnorrSignature{e, s};
}

bool SchnorrEngine::verify(const U256& public_key, BytesView message,
                           const SchnorrSignature& sig) const {
  if (sig.e >= group_.q || sig.s >= group_.q) return false;
  return challenge(commitment(public_key, sig.s, sig.e), message) == sig.e;
}

SchnorrSignatureRS SchnorrEngine::sign_rs(const U256& secret, BytesView message, Rng& rng) const {
  bool borrow = false;
  const U256 k = add_mod(random_below(rng, sub(group_.q, U256(1), borrow)), U256(1), group_.q);
  const U256 r = pow_g(k);
  const U256 e = challenge(r, message);
  const U256 s = sub_mod(k, mul_q(secret, e), group_.q);
  return SchnorrSignatureRS{r, s};
}

bool SchnorrEngine::verify_rs(const U256& public_key, BytesView message,
                              const SchnorrSignatureRS& sig) const {
  if (sig.s >= group_.q || sig.r >= group_.p || sig.r.is_zero()) return false;
  return commitment(public_key, sig.s, challenge(sig.r, message)) == sig.r;
}

}  // namespace g2g::crypto
