// Test-only reference implementations of the crypto layer: the oracle the
// differential tests judge the production kernels by (docs/TESTING.md, "The
// differential layer").
//
// Every function here is the straight-line form of its scheme, built so it
// shares no accelerated kernel with the code it judges:
//  * SHA-256 pads the message itself and runs sha256_compress_scalar, the
//    scalar FIPS 180-4 rounds called by name, whatever the CPU;
//  * HMAC is RFC 2104 spelled out over that hash, and the heavy HMAC chain
//    is the literal chain of hmac.hpp over that HMAC, one buffer per link;
//  * the Schnorr and DH functions run the schoolbook pow_mod / mul_mod / mod
//    of uint256.cpp, never a Montgomery kernel or a window table.
// The suites at the end wrap those functions in the crypto::Suite interface
// with the production suites' byte formats and nonce derivation, so a whole
// experiment can run on the oracle through ExperimentConfig::suite. They are
// slow by design and never leave the tests.
#pragma once

#include <cstdint>
#include <utility>

#include "g2g/crypto/schnorr.hpp"
#include "g2g/crypto/sha256.hpp"
#include "g2g/crypto/suite.hpp"
#include "g2g/crypto/uint256.hpp"
#include "g2g/util/bytes.hpp"
#include "g2g/util/rng.hpp"

namespace g2g::oracle {

using crypto::Digest;
using crypto::SchnorrGroup;
using crypto::SchnorrKeyPair;
using crypto::SchnorrSignatureRS;
using crypto::U256;

// -- Hashing -------------------------------------------------------------------

/// SHA-256 of `message` (FIPS 180-4): padded in one buffer, compressed by the
/// scalar rounds.
[[nodiscard]] Digest sha256(BytesView message);

/// HMAC-SHA256 (RFC 2104) on sha256 above: a key longer than a block is
/// hashed first, then H((K ^ opad) || H((K ^ ipad) || m)).
[[nodiscard]] Digest hmac_sha256(BytesView key, BytesView message);

/// The chaining values after HMAC's ipad and opad blocks for `key`, in the
/// scalar rounds: what HmacKey keeps, for calling hmac_sha256_finish_scalar
/// by name.
[[nodiscard]] std::pair<crypto::Sha256State, crypto::Sha256State> hmac_midstates(BytesView key);

/// The storage-proof chain of crypto::heavy_hmac: H_0 = HMAC(s, m),
/// H_i = HMAC(s, H_{i-1} || SHA-256(m)), each link re-keyed from the seed.
[[nodiscard]] Digest heavy_hmac_reference(BytesView message, BytesView seed,
                                          std::uint32_t iterations);

// -- Schnorr over Z_p*, schoolbook arithmetic -----------------------------------

/// x uniform in [1, q), y = g^x mod p; the same RNG draws as
/// SchnorrEngine::keygen.
[[nodiscard]] SchnorrKeyPair schnorr_keygen(const SchnorrGroup& group, Rng& rng);
/// The challenge e = H(R || m) mod q, R as 32 big-endian bytes.
[[nodiscard]] U256 schnorr_challenge(const SchnorrGroup& group, const U256& r, BytesView message);
/// (R, s) with k drawn as keygen draws x, R = g^k, e = H(R || m) mod q,
/// s = k - x·e mod q.
[[nodiscard]] SchnorrSignatureRS schnorr_rs_sign(const SchnorrGroup& group, const U256& secret,
                                                 BytesView message, Rng& rng);
/// s < q, 0 < R < p and g^s · y^e == R with e = H(R || m) mod q.
[[nodiscard]] bool schnorr_rs_verify(const SchnorrGroup& group, const U256& public_key,
                                     BytesView message, const SchnorrSignatureRS& sig);
/// Static Diffie–Hellman: peer_public^my_secret mod p.
[[nodiscard]] U256 dh_shared_secret(const SchnorrGroup& group, const U256& my_secret,
                                    const U256& peer_public);

// -- Suites ---------------------------------------------------------------------

/// crypto::make_schnorr_rs_suite(group) on the functions above.
[[nodiscard]] crypto::SuitePtr schnorr_rs_suite(const SchnorrGroup& group);
/// crypto::make_fast_suite(seed) on hmac_sha256 above.
[[nodiscard]] crypto::SuitePtr fast_suite(std::uint64_t seed);

}  // namespace g2g::oracle
