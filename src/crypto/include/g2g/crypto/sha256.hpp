// SHA-256 (FIPS 180-4). Used for message digests H(m), session transcripts,
// and as the compression core of HMAC and the heavy HMAC challenge.
//
// Besides the incremental context, the header exposes the two kernels HMAC
// is built from: block compression into a bare chaining value (how HmacKey
// precomputes its ipad/opad midstates) and one fused HMAC finish that runs
// the inner and then the outer compressions in a single call. Every entry
// point takes the SHA-NI rounds when sha_ni_available() (fastpath.hpp, one
// cached CPUID check) and the scalar FIPS 180-4 rounds otherwise; the words
// are the same either way. The scalar kernels are also exposed by name, as
// mont_mul_portable is, so tests pin the hardware rounds to them on SHA-NI
// hosts.
#pragma once

#include <array>
#include <cstdint>

#include "g2g/util/bytes.hpp"

namespace g2g::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;
using Digest = std::array<std::uint8_t, kSha256DigestSize>;

/// A chaining value: the eight state words H0..H7.
using Sha256State = std::array<std::uint32_t, 8>;

/// Initial chaining value H(0) from FIPS 180-4.
inline constexpr Sha256State kSha256InitState = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                                 0xa54ff53a, 0x510e527f, 0x9b05688c,
                                                 0x1f83d9ab, 0x5be0cd19};

/// Compresses `count` consecutive 64-byte blocks into `state`.
void sha256_compress(Sha256State& state, const std::uint8_t* blocks, std::size_t count);

/// sha256_compress in the scalar rounds, on every CPU: the kernel where
/// SHA-NI is missing, and the hardware rounds' oracle in the tests.
void sha256_compress_scalar(Sha256State& state, const std::uint8_t* blocks, std::size_t count);

/// The end of an HMAC-SHA256 (RFC 2104) in one kernel call. `inner` has
/// absorbed the ipad block and the message up to `data`, `absorbed` bytes in
/// all (a multiple of 64); `outer` has absorbed the opad block. Runs the
/// whole blocks of `data` in place, then its tail and padding from one stack
/// buffer, then the outer block (the inner digest and constant padding), and
/// returns the MAC.
[[nodiscard]] Digest hmac_sha256_finish(const Sha256State& inner, const Sha256State& outer,
                                        BytesView data, std::uint64_t absorbed);

/// hmac_sha256_finish in the scalar rounds, on every CPU (same contract).
[[nodiscard]] Digest hmac_sha256_finish_scalar(const Sha256State& inner, const Sha256State& outer,
                                               BytesView data, std::uint64_t absorbed);

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(BytesView data);
  /// Finalize and return the digest. The context must be reset() before reuse.
  [[nodiscard]] Digest finish();

 private:
  Sha256State state_{};
  std::uint64_t length_ = 0;  // total bytes fed
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
};

/// One-shot digest.
[[nodiscard]] Digest sha256(BytesView data);
/// Digest of the concatenation a || b (avoids an allocation).
[[nodiscard]] Digest sha256(BytesView a, BytesView b);

[[nodiscard]] inline BytesView digest_view(const Digest& d) {
  return BytesView(d.data(), d.size());
}
[[nodiscard]] inline Bytes digest_bytes(const Digest& d) {
  return Bytes(d.begin(), d.end());
}

}  // namespace g2g::crypto
