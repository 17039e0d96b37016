#include "g2g/crypto/suite.hpp"

#include <algorithm>

#include "g2g/crypto/hmac.hpp"
#include "g2g/crypto/key_memo.hpp"
#include "g2g/crypto/schnorr.hpp"
#include "g2g/crypto/sha256.hpp"

namespace g2g::crypto {

namespace {

// Deterministic nonce derivation (RFC-6979 style): the signing nonce is a PRF
// of the secret and the message, so signing needs no ambient RNG.
Rng nonce_rng(BytesView secret_key, BytesView message) {
  const Digest nd = hmac_sha256(secret_key, message);
  const U256 seed = U256::from_bytes_be(digest_view(nd));
  return Rng(seed.limb[0] ^ seed.limb[2]);
}

class SchnorrRSSuite final : public Suite {
 public:
  // The engine carries the per-group fixed-base tables for g; every key,
  // signature, and verdict it produces is byte-identical to the schoolbook
  // schnorr_rs_* functions of the test oracle (the differential suite pins
  // this down).
  explicit SchnorrRSSuite(const SchnorrGroup& group) : engine_(group) {}

  KeyPair keygen(Rng& rng) const override {
    const SchnorrKeyPair kp = engine_.keygen(rng);
    return KeyPair{kp.secret.to_bytes_be(), kp.public_key.to_bytes_be()};
  }

  Bytes sign(BytesView secret_key, BytesView message) const override {
    Rng rng = nonce_rng(secret_key, message);
    return engine_.sign_rs(U256::from_bytes_be(secret_key), message, rng).encode();
  }

  bool verify(BytesView public_key, BytesView message, BytesView signature) const override {
    if (signature.size() != 64 || public_key.size() != 32) return false;
    return engine_.verify_rs(U256::from_bytes_be(public_key), message,
                             SchnorrSignatureRS::decode(signature));
  }

  Bytes shared_secret(BytesView my_secret_key, BytesView peer_public_key) const override {
    return engine_
        .shared_secret(U256::from_bytes_be(my_secret_key), U256::from_bytes_be(peer_public_key))
        .to_bytes_be();
  }

  std::size_t signature_size() const override { return 64; }
  std::string name() const override { return "schnorr-zp-rs"; }

 private:
  SchnorrEngine engine_;
};

Bytes seed_bytes(std::uint64_t seed) {
  Writer w(8);
  w.u64(seed);
  return std::move(w).take();
}

class FastSuite final : public Suite {
 public:
  explicit FastSuite(std::uint64_t seed) : seed_key_(seed_bytes(seed)) {}

  KeyPair keygen(Rng& rng) const override {
    // public key: 32 random bytes; secret key: pub || mac_key(pub).
    Bytes pub(32);
    for (std::size_t i = 0; i < 4; ++i) {
      const std::uint64_t v = rng.next();
      for (std::size_t j = 0; j < 8; ++j) {
        pub[8 * i + j] = static_cast<std::uint8_t>(v >> (8 * j));
      }
    }
    const Digest mac_key = derive_mac_key(pub);
    Bytes secret = pub;
    secret.insert(secret.end(), mac_key.begin(), mac_key.end());
    return KeyPair{std::move(secret), std::move(pub)};
  }

  Bytes sign(BytesView secret_key, BytesView message) const override {
    // Memoised by the MAC-key half itself, never by the public half: a
    // secret key minted under another seed still MACs with its own key.
    const BytesView mac_key = secret_key.subspan(32);
    return digest_bytes(sign_keys_.get(mac_key, [&] { return HmacKey(mac_key); })->mac(message));
  }

  bool verify(BytesView public_key, BytesView message, BytesView signature) const override {
    if (signature.size() != kSha256DigestSize) return false;
    const Digest expect =
        verify_keys_
            .get(public_key, [&] { return HmacKey(digest_view(derive_mac_key(public_key))); })
            ->mac(message);
    Digest got{};
    std::copy(signature.begin(), signature.end(), got.begin());
    return digest_equal(expect, got);
  }

  Bytes shared_secret(BytesView my_secret_key, BytesView peer_public_key) const override {
    // Symmetric in the two endpoints: HMAC(seed, sorted(pub_a, pub_b)).
    const BytesView my_pub = my_secret_key.subspan(0, 32);
    Writer w(64);
    const bool mine_first = std::lexicographical_compare(my_pub.begin(), my_pub.end(),
                                                         peer_public_key.begin(),
                                                         peer_public_key.end());
    if (mine_first) {
      w.raw(my_pub);
      w.raw(peer_public_key);
    } else {
      w.raw(peer_public_key);
      w.raw(my_pub);
    }
    return digest_bytes(seed_key_.mac(w.bytes()));
  }

  std::size_t signature_size() const override { return kSha256DigestSize; }
  std::string name() const override { return "fast-hmac"; }

 private:
  [[nodiscard]] Digest derive_mac_key(BytesView pub) const { return seed_key_.mac(pub); }

  HmacKey seed_key_;  ///< HMAC pad states of the suite seed
  // Per-key pad states: K_pub = HMAC(seed, pub) by public key for verify,
  // the secret key's MAC-key half for sign.
  mutable KeyMemo<HmacKey> verify_keys_;
  mutable KeyMemo<HmacKey> sign_keys_;
};

}  // namespace

SuitePtr make_schnorr_rs_suite() { return make_schnorr_rs_suite(SchnorrGroup::default_group()); }

SuitePtr make_schnorr_rs_suite(const SchnorrGroup& group) {
  return std::make_shared<SchnorrRSSuite>(group);
}

SuitePtr make_fast_suite(std::uint64_t seed) { return std::make_shared<FastSuite>(seed); }

SessionKeys derive_session_keys(BytesView shared_secret, BytesView transcript) {
  Writer w(shared_secret.size() + transcript.size());
  w.raw(shared_secret);
  w.raw(transcript);
  SessionKeys keys;
  keys.enc_key = derive_chacha_key(w.bytes());
  keys.nonce = derive_chacha_nonce(w.bytes());
  return keys;
}

}  // namespace g2g::crypto
