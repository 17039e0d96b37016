#include "g2g/crypto/chacha20.hpp"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "g2g/crypto/sha256.hpp"

namespace g2g::crypto {

namespace {

constexpr std::uint32_t rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c, std::uint32_t& d) {
  a += b; d ^= a; d = rotl(d, 16);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

void chacha_block(const ChaChaKey& key, const ChaChaNonce& nonce, std::uint32_t counter,
                  std::uint8_t out[64]) {
  std::uint32_t state[16];
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state[4 + i] = load_le32(key.data() + 4 * i);
  state[12] = counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = load_le32(nonce.data() + 4 * i);

  std::uint32_t w[16];
  std::memcpy(w, state, sizeof(w));
  for (int round = 0; round < 10; ++round) {
    quarter_round(w[0], w[4], w[8], w[12]);
    quarter_round(w[1], w[5], w[9], w[13]);
    quarter_round(w[2], w[6], w[10], w[14]);
    quarter_round(w[3], w[7], w[11], w[15]);
    quarter_round(w[0], w[5], w[10], w[15]);
    quarter_round(w[1], w[6], w[11], w[12]);
    quarter_round(w[2], w[7], w[8], w[13]);
    quarter_round(w[3], w[4], w[9], w[14]);
  }
  for (int i = 0; i < 16; ++i) {
    const std::uint32_t v = w[i] + state[i];
    out[4 * i] = static_cast<std::uint8_t>(v);
    out[4 * i + 1] = static_cast<std::uint8_t>(v >> 8);
    out[4 * i + 2] = static_cast<std::uint8_t>(v >> 16);
    out[4 * i + 3] = static_cast<std::uint8_t>(v >> 24);
  }
}

// Domain labels of the key and nonce derivations, hashed in place.
constexpr std::string_view kKeyLabel = "g2g-chacha-key";
constexpr std::string_view kNonceLabel = "g2g-chacha-nonce";

BytesView label_bytes(std::string_view label) {
  return {reinterpret_cast<const std::uint8_t*>(label.data()), label.size()};
}

}  // namespace

Bytes chacha20_xor(const ChaChaKey& key, const ChaChaNonce& nonce, BytesView data,
                   std::uint32_t initial_counter) {
  Bytes out(data.begin(), data.end());
  std::uint8_t keystream[64];
  std::uint32_t counter = initial_counter;
  for (std::size_t pos = 0; pos < out.size(); pos += 64, ++counter) {
    chacha_block(key, nonce, counter, keystream);
    const std::size_t n = std::min<std::size_t>(64, out.size() - pos);
    for (std::size_t i = 0; i < n; ++i) out[pos + i] ^= keystream[i];
  }
  return out;
}

ChaChaKey derive_chacha_key(BytesView material) {
  const Digest d = sha256(label_bytes(kKeyLabel), material);
  ChaChaKey key{};
  std::copy(d.begin(), d.end(), key.begin());
  return key;
}

ChaChaNonce derive_chacha_nonce(BytesView material) {
  const Digest d = sha256(label_bytes(kNonceLabel), material);
  ChaChaNonce nonce{};
  std::copy_n(d.begin(), nonce.size(), nonce.begin());
  return nonce;
}

}  // namespace g2g::crypto
