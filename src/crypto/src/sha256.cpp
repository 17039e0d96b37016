#include "g2g/crypto/sha256.hpp"

#include <cstring>

#include "g2g/crypto/fastpath.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define G2G_HAVE_SHA_NI 1
#include <immintrin.h>
#endif

namespace g2g::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

/// Bit count that ends HMAC's outer message: the opad block and the inner
/// digest, 96 bytes.
constexpr std::uint64_t kOuterBits = (64 + kSha256DigestSize) * 8;

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

/// Padded blocks that end a message whose last `tail` (< 64) bytes are
/// buffered: one, or two when the 0x80 marker and the 8-byte bit count no
/// longer fit after them.
constexpr std::size_t pad_blocks(std::size_t tail) { return tail < 56 ? 1 : 2; }

/// Writes padded block `index` (< pad_blocks(tail)) of FIPS 180-4 §5.1.1
/// into the 64-byte `block`. Block 0 keeps the `tail` message bytes at its
/// front and takes the 0x80 marker after them; the last block ends in the
/// big-endian `bit_count`; every other byte is zero. The one padding routine
/// of Sha256::finish and the HMAC finish.
void pad_block(std::uint8_t* block, std::size_t index, std::size_t tail, std::uint64_t bit_count) {
  std::size_t pos = 0;
  if (index == 0) {
    pos = tail;
    block[pos++] = 0x80;
  }
  const bool last = index + 1 == pad_blocks(tail);
  std::memset(block + pos, 0, (last ? 56 : 64) - pos);
  if (last) {
    for (int i = 0; i < 8; ++i) block[56 + i] = static_cast<std::uint8_t>(bit_count >> (56 - 8 * i));
  }
}

/// The chaining value as 32 big-endian bytes: a digest, or the first half of
/// HMAC's outer block.
void store_state(const Sha256State& state, std::uint8_t* out) {
  for (std::size_t i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
  }
}

/// Scalar FIPS 180-4 compression of one 64-byte block into `state`. The
/// reference rounds every accelerated path must match bit-for-bit.
void compress_block_scalar(std::uint32_t* state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

/// The HMAC finish in scalar rounds: the fused kernel's reference, and the
/// path without SHA-NI or with the fast path off.
Digest hmac_finish_scalar(Sha256State inner, Sha256State outer, const std::uint8_t* blocks,
                          std::size_t count, const std::uint8_t* tail, std::size_t tail_count) {
  for (std::size_t i = 0; i < count; ++i) compress_block_scalar(inner.data(), blocks + 64 * i);
  for (std::size_t i = 0; i < tail_count; ++i) compress_block_scalar(inner.data(), tail + 64 * i);
  std::uint8_t block[64]{};
  store_state(inner, block);
  pad_block(block, 0, kSha256DigestSize, kOuterBits);
  compress_block_scalar(outer.data(), block);
  Digest out{};
  store_state(outer, out.data());
  return out;
}

#if defined(G2G_HAVE_SHA_NI)
// Hardware rounds via the SHA-NI extension. The x86 instructions work on a
// transposed state layout, ABEF/CDGH in two vectors, so a chaining value is
// packed on entry and unpacked on exit; the words are bit-identical to the
// scalar rounds. The helpers below are always inlined into the two kernels,
// which keep the packed state in vector registers from the first block to
// the last. The round and schedule loops carry unroll pragmas because GCC's
// -O2 (the RelWithDebInfo build) leaves them rolled, with msg[] in memory.
#define G2G_SHA_NI_INLINE __attribute__((target("sha,sse4.1"), always_inline)) inline

/// Swaps the bytes of each 32-bit lane: big-endian block words to lanes and
/// back.
G2G_SHA_NI_INLINE __m128i shani_byteswap(__m128i v) {
  return _mm_shuffle_epi8(v, _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL));
}

/// Packs the chaining value H0..H7 into ABEF/CDGH.
G2G_SHA_NI_INLINE void shani_pack(const std::uint32_t* state, __m128i& abef, __m128i& cdgh) {
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  abef = _mm_alignr_epi8(cdab, efgh, 8);
  cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
}

/// Unpacks ABEF/CDGH into H0..H3 and H4..H7 in lane order: the chaining
/// value's words, and the message words W0..W7 of HMAC's outer block.
G2G_SHA_NI_INLINE void shani_unpack(__m128i abef, __m128i cdgh, __m128i& dcba, __m128i& hgfe) {
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
}

/// The 64 rounds of one block on the packed state. msg[] enters with
/// W0..W15, four words per vector in lane order; each turn of the second loop
/// replaces the oldest group with the next four schedule words.
G2G_SHA_NI_INLINE void shani_rounds(__m128i& abef, __m128i& cdgh, __m128i msg[4]) {
  const __m128i abef_save = abef;
  const __m128i cdgh_save = cdgh;
#pragma GCC unroll 4
  for (int g = 0; g < 4; ++g) {
    __m128i wk =
        _mm_add_epi32(msg[g], _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    wk = _mm_shuffle_epi32(wk, 0x0E);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
  }
#pragma GCC unroll 12
  for (int g = 4; g < 16; ++g) {
    const __m128i m0 = msg[g & 3];
    const __m128i m1 = msg[(g + 1) & 3];
    const __m128i m2 = msg[(g + 2) & 3];
    const __m128i m3 = msg[(g + 3) & 3];
    __m128i w = _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1), _mm_alignr_epi8(m3, m2, 4));
    w = _mm_sha256msg2_epu32(w, m3);
    msg[g & 3] = w;
    __m128i wk = _mm_add_epi32(w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    wk = _mm_shuffle_epi32(wk, 0x0E);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
  }
  abef = _mm_add_epi32(abef, abef_save);
  cdgh = _mm_add_epi32(cdgh, cdgh_save);
}

/// Runs `count` consecutive 64-byte blocks through the packed state.
G2G_SHA_NI_INLINE void shani_blocks(__m128i& abef, __m128i& cdgh, const std::uint8_t* data,
                                    std::size_t count) {
  for (; count > 0; --count, data += 64) {
    __m128i msg[4];
#pragma GCC unroll 4
    for (int g = 0; g < 4; ++g) {
      msg[g] = shani_byteswap(_mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)));
    }
    shani_rounds(abef, cdgh, msg);
  }
}

__attribute__((target("sha,sse4.1"))) void compress_blocks_shani(std::uint32_t* state,
                                                                 const std::uint8_t* data,
                                                                 std::size_t count) {
  __m128i abef;
  __m128i cdgh;
  shani_pack(state, abef, cdgh);
  shani_blocks(abef, cdgh, data, count);
  __m128i dcba;
  __m128i hgfe;
  shani_unpack(abef, cdgh, dcba, hgfe);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), hgfe);
}

/// hmac_finish_scalar in hardware rounds, without leaving the vector
/// registers between the inner and the outer hash.
__attribute__((target("sha,sse4.1"))) Digest hmac_finish_shani(
    const std::uint32_t* inner, const std::uint32_t* outer, const std::uint8_t* blocks,
    std::size_t count, const std::uint8_t* tail, std::size_t tail_count) {
  __m128i abef;
  __m128i cdgh;
  shani_pack(inner, abef, cdgh);
  shani_blocks(abef, cdgh, blocks, count);
  shani_blocks(abef, cdgh, tail, tail_count);
  // The outer block: the inner digest is W0..W7 as it unpacks, then its
  // padding is constant: W8 the 0x80 marker, W9..W14 zero, W15 the count.
  __m128i msg[4];
  shani_unpack(abef, cdgh, msg[0], msg[1]);
  msg[2] = _mm_set_epi32(0, 0, 0, static_cast<int>(0x80000000u));
  msg[3] = _mm_set_epi32(static_cast<int>(kOuterBits), 0, 0, 0);
  shani_pack(outer, abef, cdgh);
  shani_rounds(abef, cdgh, msg);
  __m128i dcba;
  __m128i hgfe;
  shani_unpack(abef, cdgh, dcba, hgfe);
  Digest out{};
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out.data()), shani_byteswap(dcba));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out.data() + 16), shani_byteswap(hgfe));
  return out;
}
#endif  // G2G_HAVE_SHA_NI

}  // namespace

void sha256_compress(Sha256State& state, const std::uint8_t* blocks, std::size_t count) {
#if defined(G2G_HAVE_SHA_NI)
  if (sha_accelerated()) {
    compress_blocks_shani(state.data(), blocks, count);
    return;
  }
#endif
  for (std::size_t i = 0; i < count; ++i) compress_block_scalar(state.data(), blocks + 64 * i);
}

Digest hmac_sha256_finish(const Sha256State& inner, const Sha256State& outer, BytesView data,
                          std::uint64_t absorbed) {
  const std::size_t whole = data.size() / 64;
  const std::size_t tail = data.size() % 64;
  // The tail and its padding. Left uninitialised on purpose: the memcpy and
  // pad_block write every byte the kernel reads, each once.
  std::uint8_t last[128];
  if (tail > 0) std::memcpy(last, data.data() + 64 * whole, tail);
  const std::size_t last_count = pad_blocks(tail);
  const std::uint64_t bit_count = (absorbed + data.size()) * 8;
  for (std::size_t i = 0; i < last_count; ++i) pad_block(last + 64 * i, i, tail, bit_count);
#if defined(G2G_HAVE_SHA_NI)
  if (sha_accelerated()) {
    return hmac_finish_shani(inner.data(), outer.data(), data.data(), whole, last, last_count);
  }
#endif
  return hmac_finish_scalar(inner, outer, data.data(), whole, last, last_count);
}

void Sha256::reset() {
  state_ = kSha256InitState;
  length_ = 0;
  buffered_ = 0;
}

void Sha256::update(BytesView data) {
  // An empty view may carry a null data(), which memcpy must never see.
  if (data.empty()) return;
  length_ += data.size();
  std::size_t pos = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    pos = take;
    if (buffered_ == 64) {
      sha256_compress(state_, buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  const std::size_t whole = (data.size() - pos) / 64;
  if (whole > 0) {
    sha256_compress(state_, data.data() + pos, whole);
    pos += whole * 64;
  }
  if (pos < data.size()) {
    std::memcpy(buffer_.data(), data.data() + pos, data.size() - pos);
    buffered_ = data.size() - pos;
  }
}

Digest Sha256::finish() {
  // The padding goes into buffer_ in place; when it takes a second block,
  // buffer_ holds that one too once the first is compressed.
  const std::uint64_t bit_count = length_ * 8;
  for (std::size_t i = 0; i < pad_blocks(buffered_); ++i) {
    pad_block(buffer_.data(), i, buffered_, bit_count);
    sha256_compress(state_, buffer_.data(), 1);
  }
  buffered_ = 0;
  Digest out{};
  store_state(state_, out.data());
  return out;
}

Digest sha256(BytesView data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

Digest sha256(BytesView a, BytesView b) {
  Sha256 ctx;
  ctx.update(a);
  ctx.update(b);
  return ctx.finish();
}

}  // namespace g2g::crypto
