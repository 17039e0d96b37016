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
// Protocol code is written against this interface only.
//
// Contract for every implementation:
//  * pure: each result depends only on the suite (group or seed) and the
//    call's arguments, so verdicts, signatures and secrets are the same on
//    every call, run and thread;
//  * thread-safe: one suite may be shared by concurrent runs;
//  * bounded memo: per-signer precomputation (the Schnorr key tables, the
//    FastSuite HMAC pad states) lives in a KeyMemo (key_memo.hpp), keyed by
//    the exact key bytes and cleared past a fixed bound, so a long-lived
//    suite's memory stays flat.
#pragma once

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
