// The oracle's SHA-256, HMAC and heavy HMAC chain (oracle.hpp).
#include <algorithm>
#include <array>

#include "oracle.hpp"

namespace g2g::oracle {

Digest sha256(BytesView message) {
  // FIPS 180-4 §5.1.1: the message, a 1 bit, zeros up to 56 mod 64 bytes,
  // then the message length in bits as a big-endian 64-bit word.
  Bytes padded(message.begin(), message.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(message.size()) * 8;
  for (int shift = 56; shift >= 0; shift -= 8) {
    padded.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
  crypto::Sha256State state = crypto::kSha256InitState;
  crypto::sha256_compress_scalar(state, padded.data(), padded.size() / 64);
  Digest out{};
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

namespace {

/// K ^ pad, one block: K is the key, hashed first when longer than a block,
/// then zero-padded.
Bytes padded_key(BytesView key, std::uint8_t pad) {
  std::array<std::uint8_t, 64> k{};
  if (key.size() > k.size()) {
    const Digest d = sha256(key);
    std::copy(d.begin(), d.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }
  Bytes out;
  for (const std::uint8_t b : k) out.push_back(static_cast<std::uint8_t>(b ^ pad));
  return out;
}

}  // namespace

Digest hmac_sha256(BytesView key, BytesView message) {
  Bytes inner = padded_key(key, 0x36);
  inner.insert(inner.end(), message.begin(), message.end());
  const Digest inner_digest = sha256(inner);
  Bytes outer = padded_key(key, 0x5c);
  outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
  return sha256(outer);
}

std::pair<crypto::Sha256State, crypto::Sha256State> hmac_midstates(BytesView key) {
  std::pair<crypto::Sha256State, crypto::Sha256State> states{crypto::kSha256InitState,
                                                             crypto::kSha256InitState};
  crypto::sha256_compress_scalar(states.first, padded_key(key, 0x36).data(), 1);
  crypto::sha256_compress_scalar(states.second, padded_key(key, 0x5c).data(), 1);
  return states;
}

Digest heavy_hmac_reference(BytesView message, BytesView seed, std::uint32_t iterations) {
  const Digest m_digest = sha256(message);
  Digest h = hmac_sha256(seed, message);
  for (std::uint32_t i = 0; i < iterations; ++i) {
    Bytes link(h.begin(), h.end());
    link.insert(link.end(), m_digest.begin(), m_digest.end());
    h = hmac_sha256(seed, link);
  }
  return h;
}

}  // namespace g2g::oracle
