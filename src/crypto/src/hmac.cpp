#include "g2g/crypto/hmac.hpp"

#include <algorithm>
#include <array>

#include "g2g/crypto/fastpath.hpp"

namespace g2g::crypto {

namespace {
constexpr std::size_t kBlockSize = 64;

std::array<std::uint8_t, kBlockSize> normalize_key(BytesView key) {
  std::array<std::uint8_t, kBlockSize> out{};
  if (key.size() > kBlockSize) {
    const Digest d = sha256(key);
    std::copy(d.begin(), d.end(), out.begin());
  } else {
    std::copy(key.begin(), key.end(), out.begin());
  }
  return out;
}
}  // namespace

Digest hmac_sha256(BytesView key, BytesView data) {
  return HmacKey(key).mac(data);
}

HmacKey::HmacKey(BytesView key) : inner_(kSha256InitState), outer_(kSha256InitState) {
  const auto k = normalize_key(key);
  std::array<std::uint8_t, kBlockSize> ipad{};
  std::array<std::uint8_t, kBlockSize> opad{};
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }
  sha256_compress(inner_, ipad.data(), 1);
  sha256_compress(outer_, opad.data(), 1);
}

Digest HmacKey::mac(BytesView data) const {
  return hmac_sha256_finish(inner_, outer_, data, kBlockSize);
}

Digest HmacKey::mac(BytesView a, BytesView b) const {
  // Whole blocks of `a` run in place. The block that straddles a and b is
  // assembled on the stack, and the rest of b goes to the fused finish.
  Sha256State inner = inner_;
  const std::size_t a_blocks = a.size() / kBlockSize;
  if (a_blocks > 0) sha256_compress(inner, a.data(), a_blocks);
  const BytesView a_rest = a.subspan(kBlockSize * a_blocks);
  const BytesView b_head = b.first(std::min(b.size(), kBlockSize - a_rest.size()));
  std::array<std::uint8_t, kBlockSize> block{};
  std::copy(b_head.begin(), b_head.end(), std::copy(a_rest.begin(), a_rest.end(), block.begin()));
  const std::size_t filled = a_rest.size() + b_head.size();
  const std::uint64_t absorbed = kBlockSize * (1 + a_blocks);
  if (filled < kBlockSize) {
    return hmac_sha256_finish(inner, outer_, BytesView(block.data(), filled), absorbed);
  }
  sha256_compress(inner, block.data(), 1);
  return hmac_sha256_finish(inner, outer_, b.subspan(b_head.size()), absorbed + kBlockSize);
}

Digest heavy_hmac(BytesView message, BytesView seed, std::uint32_t iterations) {
  if (!fast_path_enabled()) return heavy_hmac_reference(message, seed, iterations);
  // Hash the message once so each iteration touches a fixed-size state; the
  // cost knob is the iteration count, independent of message length.
  const Digest m_digest = sha256(message);
  const HmacKey key(seed);
  Digest h = key.mac(message);
  for (std::uint32_t i = 0; i < iterations; ++i) {
    h = key.mac(digest_view(h), digest_view(m_digest));
  }
  return h;
}

Digest heavy_hmac_reference(BytesView message, BytesView seed, std::uint32_t iterations) {
  // Original straight-line chain: re-derives the HMAC pads and allocates the
  // concatenation buffer every iteration. Kept as the differential oracle for
  // heavy_hmac (tests/crypto_fastpath_diff_test.cpp).
  const Digest m_digest = sha256(message);
  Digest h = hmac_sha256(seed, message);
  for (std::uint32_t i = 0; i < iterations; ++i) {
    Writer w(64);
    w.raw(digest_view(h));
    w.raw(digest_view(m_digest));
    h = hmac_sha256(seed, w.bytes());
  }
  return h;
}

bool heavy_hmac_equal(BytesView message_a, BytesView seed_a, std::uint32_t iterations_a,
                      BytesView message_b, BytesView seed_b, std::uint32_t iterations_b) {
  if (iterations_a == iterations_b && std::ranges::equal(seed_a, seed_b) &&
      std::ranges::equal(message_a, message_b)) {
    return true;  // one chain: its digest equals itself
  }
  return digest_equal(heavy_hmac(message_a, seed_a, iterations_a),
                      heavy_hmac(message_b, seed_b, iterations_b));
}

bool digest_equal(const Digest& a, const Digest& b) {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= static_cast<std::uint8_t>(a[i] ^ b[i]);
  return diff == 0;
}

}  // namespace g2g::crypto
