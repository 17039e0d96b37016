// Pluggable signature/key-agreement suite.
//
// Two implementations:
//  * the (R,s) Schnorr suite — the real public-key path (schnorr.hpp), for
//    unit tests, the crypto micro-benches and `g2gsim --schnorr`.
//  * FastSuite — a symmetric emulation for large simulation sweeps: a
//    "signature" is HMAC(K_pub, msg) where K_pub = HMAC(suite_seed, pub) is a
//    per-key MAC key derivable only through the suite (which plays the role of
//    the unforgeability assumption). Protocol code cannot forge signatures it
//    did not legitimately produce, which is exactly the property the paper's
//    mechanisms rely on, at a tiny fraction of the CPU cost.
//
// Protocol code is written against this interface only, and signs and
// verifies through prepared keys: a SigningKey or PublicKey does its
// per-key precomputation (the HMAC pad states, the Schnorr window table)
// once, when it is prepared, so each later call costs only its arithmetic.
// The one-shot sign/verify/shared_secret prepare a key for the one call.
//
// Contract for every implementation:
//  * pure: each result depends only on the suite (group or seed) and the
//    call's arguments, so verdicts, signatures and secrets are the same on
//    every call, run and thread, prepared or one-shot;
//  * thread-safe: one suite, and one prepared key, may be shared by
//    concurrent runs; neither holds mutable state;
//  * a prepared key may refer to the suite that made it, so it must not
//    outlive that suite (the holders keep the SuitePtr beside the key).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "g2g/crypto/chacha20.hpp"
#include "g2g/util/bytes.hpp"
#include "g2g/util/rng.hpp"

namespace g2g::crypto {

struct KeyPair {
  Bytes secret_key;
  Bytes public_key;
};

/// A signature held inline: up to kCapacity bytes (the (R,s) size) and its
/// length, so a signed artefact carries its signature without a heap
/// buffer. No built-in suite's signature_size() exceeds the capacity. On the
/// wire a signature is a length-prefixed blob (read_signature).
class Signature {
 public:
  static constexpr std::size_t kCapacity = 64;

  Signature() = default;
  /// A copy of `bytes`; throws std::length_error past kCapacity.
  explicit Signature(BytesView bytes);

  [[nodiscard]] BytesView view() const { return {bytes_.data(), size_}; }
  [[nodiscard]] std::size_t size() const { return size_; }

  friend bool operator==(const Signature& a, const Signature& b);

 private:
  std::array<std::uint8_t, kCapacity> bytes_{};
  // A word, not a byte, at no cost in size (a byte length pads to the same
  // 72 bytes): with a length of unknown range GCC copies a signature onto
  // the wire through memcpy rather than an inlined `rep movsq`, which cost
  // ~30 ns per PoR encode on a 4-core Xeon VM.
  std::size_t size_ = 0;
};

/// One length-prefixed signature blob; throws DecodeError for a truncated
/// one or one longer than Signature::kCapacity.
[[nodiscard]] Signature read_signature(Reader& r);

/// A secret key prepared for signing. Immutable.
class SigningKey {
 public:
  SigningKey() = default;
  SigningKey(const SigningKey&) = delete;
  SigningKey& operator=(const SigningKey&) = delete;
  virtual ~SigningKey() = default;
  [[nodiscard]] virtual Signature sign(BytesView message) const = 0;
};

/// A public key prepared for verification and for key agreement toward it.
/// Immutable.
class PublicKey {
 public:
  PublicKey() = default;
  PublicKey(const PublicKey&) = delete;
  PublicKey& operator=(const PublicKey&) = delete;
  virtual ~PublicKey() = default;
  [[nodiscard]] virtual bool verify(BytesView message, BytesView signature) const = 0;
  /// DH toward this key: the suite's shared_secret(my_secret_key, this key).
  [[nodiscard]] virtual Bytes shared_secret(BytesView my_secret_key) const = 0;
};

using SigningKeyPtr = std::shared_ptr<const SigningKey>;
using PublicKeyPtr = std::shared_ptr<const PublicKey>;

/// One verification job for Suite::verify_batch. The views must stay valid for
/// the duration of the call. No protocol code batches: this type and
/// verify_batch stay only because perfbench's TimedSuite (perfbench/probes.hpp)
/// overrides them.
struct VerifyRequest {
  // g2g-lint: allow(view-escape) -- borrowed for the duration of one verify_batch call
  BytesView public_key;
  // g2g-lint: allow(view-escape) -- borrowed for the duration of one verify_batch call
  BytesView message;
  // g2g-lint: allow(view-escape) -- borrowed for the duration of one verify_batch call
  BytesView signature;
};

/// Abstract signature + key-agreement suite (pure, shareable).
class Suite {
 public:
  virtual ~Suite() = default;

  [[nodiscard]] virtual KeyPair keygen(Rng& rng) const = 0;
  [[nodiscard]] virtual Bytes sign(BytesView secret_key, BytesView message) const = 0;
  [[nodiscard]] virtual bool verify(BytesView public_key, BytesView message,
                                    BytesView signature) const = 0;
  /// Verify a batch of signatures, writing one verdict per request.
  /// `verdicts` must have room for `requests.size()` entries. Every built-in
  /// suite keeps this per-signature loop: with per-signer tables a Schnorr
  /// verification costs less than its share of a randomized batch equation
  /// (DESIGN.md §5c). Nothing under src/ calls it; it stays for perfbench's
  /// TimedSuite override (see VerifyRequest).
  virtual void verify_batch(std::span<const VerifyRequest> requests, bool* verdicts) const {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      verdicts[i] = verify(requests[i].public_key, requests[i].message,
                           requests[i].signature);
    }
  }
  /// Key agreement: both endpoints derive the same secret from
  /// (my secret, peer public). Feeds the session-key KDF.
  [[nodiscard]] virtual Bytes shared_secret(BytesView my_secret_key,
                                            BytesView peer_public_key) const = 0;
  [[nodiscard]] virtual std::size_t signature_size() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// `secret_key` prepared for repeated signing. The default forwards each
  /// sign to this suite's one-shot sign(), so a suite that overrides only
  /// the one-shot calls (a decorator, a test oracle) still sees every call.
  [[nodiscard]] virtual SigningKeyPtr prepare_signing_key(BytesView secret_key) const;
  /// `public_key` prepared for repeated verification and DH. The default
  /// forwards to this suite's one-shot verify() and shared_secret().
  [[nodiscard]] virtual PublicKeyPtr prepare_public_key(BytesView public_key) const;
};

using SuitePtr = std::shared_ptr<const Suite>;

struct SchnorrGroup;  // schnorr.hpp

/// Real Schnorr/DH suite over the given group (default_group() if omitted):
/// (R, s)-form signatures (SchnorrSignatureRS) and static DH.
[[nodiscard]] SuitePtr make_schnorr_rs_suite();
[[nodiscard]] SuitePtr make_schnorr_rs_suite(const SchnorrGroup& group);
/// Symmetric emulation suite; `seed` is the suite-wide MAC-key seed.
[[nodiscard]] SuitePtr make_fast_suite(std::uint64_t seed = 0x4732674d41435353ULL);

/// Authenticated symmetric channel keys derived from a shared secret.
struct SessionKeys {
  ChaChaKey enc_key;
  ChaChaNonce nonce;
};

[[nodiscard]] SessionKeys derive_session_keys(BytesView shared_secret, BytesView transcript);

}  // namespace g2g::crypto
