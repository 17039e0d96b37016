// The oracle's Schnorr, DH and suites (oracle.hpp).
#include <algorithm>
#include <memory>
#include <string>

#include "oracle.hpp"

namespace g2g::oracle {

namespace {

/// Uniform in [1, q): the draw of a secret key and of a signing nonce.
U256 draw_exponent(const SchnorrGroup& group, Rng& rng) {
  bool borrow = false;
  return add_mod(random_below(rng, sub(group.q, U256(1), borrow)), U256(1), group.q);
}

/// g^s · y^e mod p.
U256 commitment(const SchnorrGroup& group, const U256& public_key, const U256& s, const U256& e) {
  return mul_mod(pow_mod(group.g, s, group.p), pow_mod(public_key, e, group.p), group.p);
}

/// The production suites' signing nonce: an Rng seeded from
/// HMAC(secret key, message), limbs 0 and 2 of the digest read big-endian.
Rng nonce_rng(BytesView secret_key, BytesView message) {
  const U256 seed = U256::from_bytes_be(crypto::digest_view(hmac_sha256(secret_key, message)));
  return Rng(seed.limb[0] ^ seed.limb[2]);
}

/// The (R,s) Schnorr suite over the functions above.
class SchnorrOracleSuite final : public crypto::Suite {
 public:
  explicit SchnorrOracleSuite(const SchnorrGroup& group) : group_(group) {}

  crypto::KeyPair keygen(Rng& rng) const override {
    const SchnorrKeyPair kp = schnorr_keygen(group_, rng);
    return crypto::KeyPair{kp.secret.to_bytes_be(), kp.public_key.to_bytes_be()};
  }

  Bytes sign(BytesView secret_key, BytesView message) const override {
    Rng rng = nonce_rng(secret_key, message);
    return schnorr_rs_sign(group_, U256::from_bytes_be(secret_key), message, rng).encode();
  }

  bool verify(BytesView public_key, BytesView message, BytesView signature) const override {
    if (signature.size() != 64 || public_key.size() != 32) return false;
    return schnorr_rs_verify(group_, U256::from_bytes_be(public_key), message,
                             SchnorrSignatureRS::decode(signature));
  }

  Bytes shared_secret(BytesView my_secret_key, BytesView peer_public_key) const override {
    return dh_shared_secret(group_, U256::from_bytes_be(my_secret_key),
                            U256::from_bytes_be(peer_public_key))
        .to_bytes_be();
  }

  std::size_t signature_size() const override { return 64; }
  std::string name() const override { return "oracle-schnorr-zp-rs"; }

 private:
  SchnorrGroup group_;
};

/// The FastSuite's symmetric emulation: K_pub = HMAC(seed, pub), a
/// signature is HMAC(K_pub, m), the secret key is pub || K_pub.
class FastOracleSuite final : public crypto::Suite {
 public:
  explicit FastOracleSuite(std::uint64_t seed) {
    Writer w(8);
    w.u64(seed);
    seed_ = std::move(w).take();
  }

  crypto::KeyPair keygen(Rng& rng) const override {
    Bytes pub(32);
    for (std::size_t i = 0; i < pub.size(); i += 8) {
      const std::uint64_t v = rng.next();
      for (std::size_t j = 0; j < 8; ++j) pub[i + j] = static_cast<std::uint8_t>(v >> (8 * j));
    }
    const Digest mac_key = hmac_sha256(seed_, pub);
    Bytes secret = pub;
    secret.insert(secret.end(), mac_key.begin(), mac_key.end());
    return crypto::KeyPair{std::move(secret), std::move(pub)};
  }

  Bytes sign(BytesView secret_key, BytesView message) const override {
    return crypto::digest_bytes(hmac_sha256(secret_key.subspan(32), message));
  }

  bool verify(BytesView public_key, BytesView message, BytesView signature) const override {
    const Digest mac_key = hmac_sha256(seed_, public_key);
    const Digest expect = hmac_sha256(mac_key, message);
    return std::ranges::equal(signature, expect);
  }

  Bytes shared_secret(BytesView my_secret_key, BytesView peer_public_key) const override {
    const BytesView my_pub = my_secret_key.subspan(0, 32);
    const bool mine_first = std::ranges::lexicographical_compare(my_pub, peer_public_key);
    Bytes pair(mine_first ? my_pub.begin() : peer_public_key.begin(),
               mine_first ? my_pub.end() : peer_public_key.end());
    const BytesView second = mine_first ? peer_public_key : my_pub;
    pair.insert(pair.end(), second.begin(), second.end());
    return crypto::digest_bytes(hmac_sha256(seed_, pair));
  }

  std::size_t signature_size() const override { return crypto::kSha256DigestSize; }
  std::string name() const override { return "oracle-fast-hmac"; }

 private:
  Bytes seed_;
};

}  // namespace

SchnorrKeyPair schnorr_keygen(const SchnorrGroup& group, Rng& rng) {
  const U256 x = draw_exponent(group, rng);
  return SchnorrKeyPair{x, pow_mod(group.g, x, group.p)};
}

U256 schnorr_challenge(const SchnorrGroup& group, const U256& r, BytesView message) {
  Bytes input = r.to_bytes_be();
  input.insert(input.end(), message.begin(), message.end());
  return mod(U256::from_bytes_be(crypto::digest_view(sha256(input))), group.q);
}

SchnorrSignatureRS schnorr_rs_sign(const SchnorrGroup& group, const U256& secret,
                                   BytesView message, Rng& rng) {
  const U256 k = draw_exponent(group, rng);
  const U256 r = pow_mod(group.g, k, group.p);
  const U256 e = schnorr_challenge(group, r, message);
  return SchnorrSignatureRS{r, sub_mod(k, mul_mod(secret, e, group.q), group.q)};
}

bool schnorr_rs_verify(const SchnorrGroup& group, const U256& public_key, BytesView message,
                       const SchnorrSignatureRS& sig) {
  if (sig.s >= group.q || sig.r >= group.p || sig.r.is_zero()) return false;
  return commitment(group, public_key, sig.s, schnorr_challenge(group, sig.r, message)) == sig.r;
}

U256 dh_shared_secret(const SchnorrGroup& group, const U256& my_secret, const U256& peer_public) {
  return pow_mod(peer_public, my_secret, group.p);
}

crypto::SuitePtr schnorr_rs_suite(const SchnorrGroup& group) {
  return std::make_shared<SchnorrOracleSuite>(group);
}

crypto::SuitePtr fast_suite(std::uint64_t seed) { return std::make_shared<FastOracleSuite>(seed); }

}  // namespace g2g::oracle
