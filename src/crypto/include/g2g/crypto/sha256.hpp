// SHA-256 (FIPS 180-4). Used for message digests H(m), session transcripts,
// and as the compression core of HMAC and the heavy HMAC challenge.
#pragma once

#include <array>
#include <cstdint>

#include "g2g/util/bytes.hpp"

namespace g2g::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;
using Digest = std::array<std::uint8_t, kSha256DigestSize>;

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(BytesView data);
  /// Finalize and return the digest. The context must be reset() before reuse.
  [[nodiscard]] Digest finish();

 private:
  void compress(const std::uint8_t block[64]);
  // Processes `count` consecutive 64-byte blocks; dispatches to the SHA-NI
  // hardware rounds when available (bit-identical to the scalar loop).
  void compress_many(const std::uint8_t* blocks, std::size_t count);

  std::array<std::uint32_t, 8> state_{};
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
