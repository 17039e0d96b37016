#include "g2g/crypto/suite.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "g2g/crypto/hmac.hpp"
#include "g2g/crypto/schnorr.hpp"
#include "g2g/crypto/sha256.hpp"

namespace g2g::crypto {

namespace {

// The defaults behind Suite::prepare_signing_key / prepare_public_key: keep
// the key bytes and hand every call to the suite's one-shot methods.
class ForwardingSigningKey final : public SigningKey {
 public:
  ForwardingSigningKey(const Suite& suite, BytesView secret_key)
      : suite_(suite), secret_key_(secret_key.begin(), secret_key.end()) {}

  Signature sign(BytesView message) const override {
    return Signature(suite_.sign(secret_key_, message));
  }

 private:
  const Suite& suite_;
  Bytes secret_key_;
};

class ForwardingPublicKey final : public PublicKey {
 public:
  ForwardingPublicKey(const Suite& suite, BytesView public_key)
      : suite_(suite), public_key_(public_key.begin(), public_key.end()) {}

  bool verify(BytesView message, BytesView signature) const override {
    return suite_.verify(public_key_, message, signature);
  }
  Bytes shared_secret(BytesView my_secret_key) const override {
    return suite_.shared_secret(my_secret_key, public_key_);
  }

 private:
  const Suite& suite_;
  Bytes public_key_;
};

Bytes to_owned(const Signature& sig) { return Bytes(sig.view().begin(), sig.view().end()); }

// -- The (R,s) Schnorr suite ----------------------------------------------------

// The parsed secret and the nonce PRF's pad states. The signing nonce is a
// PRF of the secret and the message (RFC-6979 style), HMAC(secret, m), so
// signing needs no ambient RNG.
class RsSigningKey final : public SigningKey {
 public:
  RsSigningKey(const SchnorrEngine& engine, BytesView secret_key)
      : engine_(engine), secret_(U256::from_bytes_be(secret_key)), nonce_key_(secret_key) {}

  Signature sign(BytesView message) const override {
    const U256 seed = U256::from_bytes_be(digest_view(nonce_key_.mac(message)));
    Rng rng(seed.limb[0] ^ seed.limb[2]);
    std::array<std::uint8_t, 64> out{};
    engine_.sign_rs(secret_, message, rng).write(out);
    return Signature(out);
  }

 private:
  const SchnorrEngine& engine_;
  U256 secret_;
  HmacKey nonce_key_;
};

// y and its window table. A key that is not 32 bytes is no group element of
// this suite: it verifies nothing, and DH toward it reads its bytes as
// U256::from_bytes_be does (zero-padded, or DecodeError past 32 bytes).
class RsPublicKey final : public PublicKey {
 public:
  RsPublicKey(const SchnorrEngine& engine, BytesView public_key)
      : engine_(engine), public_key_(public_key.begin(), public_key.end()) {
    if (public_key.size() == 32) key_.emplace(engine.prepare(U256::from_bytes_be(public_key)));
  }

  bool verify(BytesView message, BytesView signature) const override {
    if (!key_ || signature.size() != 64) return false;
    return engine_.verify_rs(*key_, message, SchnorrSignatureRS::decode(signature));
  }

  Bytes shared_secret(BytesView my_secret_key) const override {
    const U256 secret = U256::from_bytes_be(my_secret_key);
    return (key_ ? engine_.shared_secret(secret, *key_)
                 : engine_.shared_secret(secret, U256::from_bytes_be(public_key_)))
        .to_bytes_be();
  }

 private:
  const SchnorrEngine& engine_;
  Bytes public_key_;
  std::optional<SchnorrPreparedKey> key_;
};

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
    return to_owned(RsSigningKey(engine_, secret_key).sign(message));
  }

  bool verify(BytesView public_key, BytesView message, BytesView signature) const override {
    return RsPublicKey(engine_, public_key).verify(message, signature);
  }

  // Not prepare-then-call: a key used once, such as the ephemeral key of
  // every box a destination opens, costs less through mont_pow than through
  // a table built for it. The prepared key falls back to the same mont_pow.
  Bytes shared_secret(BytesView my_secret_key, BytesView peer_public_key) const override {
    return engine_
        .shared_secret(U256::from_bytes_be(my_secret_key), U256::from_bytes_be(peer_public_key))
        .to_bytes_be();
  }

  std::size_t signature_size() const override { return 64; }
  std::string name() const override { return "schnorr-zp-rs"; }

  SigningKeyPtr prepare_signing_key(BytesView secret_key) const override {
    return std::make_shared<const RsSigningKey>(engine_, secret_key);
  }
  PublicKeyPtr prepare_public_key(BytesView public_key) const override {
    return std::make_shared<const RsPublicKey>(engine_, public_key);
  }

 private:
  SchnorrEngine engine_;
};

// -- FastSuite ------------------------------------------------------------------

Bytes seed_bytes(std::uint64_t seed) {
  Writer w(8);
  w.u64(seed);
  return std::move(w).take();
}

/// The FastSuite key agreement, symmetric in the two endpoints:
/// HMAC(seed, sorted(pub_a, pub_b)).
Bytes fast_shared_secret(const HmacKey& seed_key, BytesView my_secret_key,
                         BytesView peer_public_key) {
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
  return digest_bytes(seed_key.mac(w.bytes()));
}

// The pad states of the secret key's MAC-key half, never of its public half:
// a secret key minted under another seed still MACs with its own key.
class FastSigningKey final : public SigningKey {
 public:
  explicit FastSigningKey(BytesView secret_key) : mac_key_(secret_key.subspan(32)) {}

  Signature sign(BytesView message) const override {
    return Signature(digest_view(mac_key_.mac(message)));
  }

 private:
  HmacKey mac_key_;
};

// The pad states of K_pub = HMAC(seed, pub), and pub itself for DH.
class FastPublicKey final : public PublicKey {
 public:
  FastPublicKey(const HmacKey& seed_key, BytesView public_key)
      : seed_key_(seed_key),
        mac_key_(digest_view(seed_key.mac(public_key))),
        public_key_(public_key.begin(), public_key.end()) {}

  bool verify(BytesView message, BytesView signature) const override {
    if (signature.size() != kSha256DigestSize) return false;
    Digest got{};
    std::copy(signature.begin(), signature.end(), got.begin());
    return digest_equal(mac_key_.mac(message), got);
  }

  Bytes shared_secret(BytesView my_secret_key) const override {
    return fast_shared_secret(seed_key_, my_secret_key, public_key_);
  }

 private:
  const HmacKey& seed_key_;  // the suite's
  HmacKey mac_key_;
  Bytes public_key_;
};

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
    const Digest mac_key = seed_key_.mac(pub);
    Bytes secret = pub;
    secret.insert(secret.end(), mac_key.begin(), mac_key.end());
    return KeyPair{std::move(secret), std::move(pub)};
  }

  Bytes sign(BytesView secret_key, BytesView message) const override {
    return to_owned(FastSigningKey(secret_key).sign(message));
  }

  bool verify(BytesView public_key, BytesView message, BytesView signature) const override {
    return FastPublicKey(seed_key_, public_key).verify(message, signature);
  }

  Bytes shared_secret(BytesView my_secret_key, BytesView peer_public_key) const override {
    return fast_shared_secret(seed_key_, my_secret_key, peer_public_key);
  }

  std::size_t signature_size() const override { return kSha256DigestSize; }
  std::string name() const override { return "fast-hmac"; }

  SigningKeyPtr prepare_signing_key(BytesView secret_key) const override {
    return std::make_shared<const FastSigningKey>(secret_key);
  }
  PublicKeyPtr prepare_public_key(BytesView public_key) const override {
    return std::make_shared<const FastPublicKey>(seed_key_, public_key);
  }

 private:
  HmacKey seed_key_;  ///< HMAC pad states of the suite seed
};

}  // namespace

Signature::Signature(BytesView bytes) {
  if (bytes.size() > kCapacity) throw std::length_error("signature longer than 64 bytes");
  std::copy(bytes.begin(), bytes.end(), bytes_.begin());
  size_ = bytes.size();
}

bool operator==(const Signature& a, const Signature& b) {
  return std::ranges::equal(a.view(), b.view());
}

Signature read_signature(Reader& r) {
  const BytesView b = r.blob_view();
  if (b.size() > Signature::kCapacity) throw DecodeError("signature longer than 64 bytes");
  return Signature(b);
}

SigningKeyPtr Suite::prepare_signing_key(BytesView secret_key) const {
  return std::make_shared<const ForwardingSigningKey>(*this, secret_key);
}

PublicKeyPtr Suite::prepare_public_key(BytesView public_key) const {
  return std::make_shared<const ForwardingPublicKey>(*this, public_key);
}

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
