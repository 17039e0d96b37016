// HMAC-SHA256 (RFC 2104) and the paper's "heavy HMAC".
//
// The test phase of G2G Epidemic Forwarding challenges a relay that claims to
// still store message m with a random seed s; the relay must answer with a
// keyed MAC "designed ... to be heavy to compute" so that silently storing a
// message is never cheaper than relaying it. heavy_hmac implements that as an
// iterated HMAC chain whose iteration count is the energy-cost knob, and
// heavy_hmac_equal is how the source judges a relay's answer.
#pragma once

#include <cstdint>

#include "g2g/crypto/sha256.hpp"
#include "g2g/util/bytes.hpp"

namespace g2g::crypto {

/// One-shot HMAC-SHA256 over `data` with key `key`.
[[nodiscard]] Digest hmac_sha256(BytesView key, BytesView data);

/// Precomputed HMAC key: the two SHA-256 chaining values (midstates) after
/// the ipad and the opad block, compressed once in the constructor. A MAC
/// then costs the compressions of its own message blocks, its padding and
/// the outer block: two for a message of up to 55 bytes, three up to 119.
/// Neither overload allocates. Produces the RFC 2104 digest, as
/// hmac_sha256(key, data) does.
class HmacKey {
 public:
  explicit HmacKey(BytesView key);

  [[nodiscard]] Digest mac(BytesView data) const;
  /// MAC of the concatenation a || b, without concatenating.
  [[nodiscard]] Digest mac(BytesView a, BytesView b) const;

 private:
  Sha256State inner_;  // chaining value after the ipad block
  Sha256State outer_;  // chaining value after the opad block
};

/// Iterated HMAC used as the storage-proof challenge.
///
/// heavy_hmac(m, s, n) = H_n where H_0 = HMAC(s, m) and
/// H_i = HMAC(s, H_{i-1} || m-digest). Each iteration re-keys from the seed so
/// the chain cannot be precomputed before the seed is revealed.
///
/// The chain keys one HmacKey from the seed and MACs each link in two parts,
/// so no link allocates; the differential tests pin it to the straight-line
/// chain of the test oracle (tests/oracle/).
[[nodiscard]] Digest heavy_hmac(BytesView message, BytesView seed, std::uint32_t iterations);

/// digest_equal over the two chains heavy_hmac(message_a, seed_a, iterations_a)
/// and heavy_hmac(message_b, seed_b, iterations_b). Byte-identical inputs
/// (message, seed and iteration count) make one and the same chain, so they
/// return true without running it; any other pair runs both chains through
/// heavy_hmac. The verdict is the digest comparison in every case. This is
/// how the source judges a storage proof: an honest relay's stored copy
/// matches its own byte for byte, and a copy that differs by one byte is
/// judged by the primitive itself.
[[nodiscard]] bool heavy_hmac_equal(BytesView message_a, BytesView seed_a,
                                    std::uint32_t iterations_a, BytesView message_b,
                                    BytesView seed_b, std::uint32_t iterations_b);

/// Constant-time digest comparison.
[[nodiscard]] bool digest_equal(const Digest& a, const Digest& b);

}  // namespace g2g::crypto
