#include "g2g/crypto/sha256.hpp"

#include <cstring>

#include "g2g/crypto/fastpath.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define G2G_HAVE_SHA_NI 1
#define G2G_HAVE_AVX2 1
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

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
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

#if defined(G2G_HAVE_SHA_NI)
// Hardware compression via the SHA-NI extension. The x86 instructions work on
// a transposed state layout — ABEF/CDGH in two vectors — so the state words
// are repacked on entry and exit; the digest is bit-identical to the scalar
// rounds below.
__attribute__((target("sha,sse4.1"))) void compress_blocks_shani(std::uint32_t* state,
                                                                 const std::uint8_t* data,
                                                                 std::size_t count) {
  const __m128i kByteswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));     // DCBA
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));  // HGFE
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                                             // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);                                       // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);                               // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);                                    // CDGH

  while (count-- > 0) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;

    // msg[] holds the most recent four W groups; each turn of the second loop
    // rewrites the oldest with W[4g..4g+3] via the SHA-NI schedule helpers.
    __m128i msg[4];
    for (int g = 0; g < 4; ++g) {
      msg[g] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)), kByteswap);
      __m128i wk = _mm_add_epi32(
          msg[g], _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
      state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, wk);
    }
    for (int g = 4; g < 16; ++g) {
      const __m128i m0 = msg[g & 3];
      const __m128i m1 = msg[(g + 1) & 3];
      const __m128i m2 = msg[(g + 2) & 3];
      const __m128i m3 = msg[(g + 3) & 3];
      __m128i w = _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1), _mm_alignr_epi8(m3, m2, 4));
      w = _mm_sha256msg2_epu32(w, m3);
      msg[g & 3] = w;
      __m128i wk =
          _mm_add_epi32(w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
      state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, wk);
    }

    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
    data += 64;
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);                                      // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);                                   // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);                                // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);                                   // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}
#endif  // G2G_HAVE_SHA_NI

#if defined(G2G_HAVE_SHA_NI)
// Multi-buffer SHA-NI: runs up to kSha256MaxLanes independent chains through
// the hardware rounds with the per-round work interleaved across lanes. One
// chain serializes on the sha256rnds2 latency chain; interleaving independent
// chains fills those latency bubbles, which is where the multi-lane win comes
// from on SHA-NI hardware. Bit-identical to compressing each lane alone.
__attribute__((target("sha,sse4.1"))) void compress_multi_shani(std::uint32_t* const* states,
                                                                const std::uint8_t* const* blocks,
                                                                std::size_t lanes,
                                                                std::size_t count) {
  const __m128i kByteswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  __m128i state0[kSha256MaxLanes];
  __m128i state1[kSha256MaxLanes];
  for (std::size_t l = 0; l < lanes; ++l) {
    __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&states[l][0]));     // DCBA
    __m128i s1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&states[l][4]));      // HGFE
    tmp = _mm_shuffle_epi32(tmp, 0xB1);                                                 // CDAB
    s1 = _mm_shuffle_epi32(s1, 0x1B);                                                   // EFGH
    state0[l] = _mm_alignr_epi8(tmp, s1, 8);                                            // ABEF
    state1[l] = _mm_blend_epi16(s1, tmp, 0xF0);                                         // CDGH
  }

  for (std::size_t blk = 0; blk < count; ++blk) {
    __m128i save0[kSha256MaxLanes];
    __m128i save1[kSha256MaxLanes];
    __m128i msg[kSha256MaxLanes][4];
    for (std::size_t l = 0; l < lanes; ++l) {
      save0[l] = state0[l];
      save1[l] = state1[l];
    }
    for (int g = 0; g < 4; ++g) {
      for (std::size_t l = 0; l < lanes; ++l) {
        const std::uint8_t* data = blocks[l] + 64 * blk;
        msg[l][g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)), kByteswap);
        __m128i wk = _mm_add_epi32(
            msg[l][g], _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
        state1[l] = _mm_sha256rnds2_epu32(state1[l], state0[l], wk);
        wk = _mm_shuffle_epi32(wk, 0x0E);
        state0[l] = _mm_sha256rnds2_epu32(state0[l], state1[l], wk);
      }
    }
    for (int g = 4; g < 16; ++g) {
      for (std::size_t l = 0; l < lanes; ++l) {
        const __m128i m0 = msg[l][g & 3];
        const __m128i m1 = msg[l][(g + 1) & 3];
        const __m128i m2 = msg[l][(g + 2) & 3];
        const __m128i m3 = msg[l][(g + 3) & 3];
        __m128i w = _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1), _mm_alignr_epi8(m3, m2, 4));
        w = _mm_sha256msg2_epu32(w, m3);
        msg[l][g & 3] = w;
        __m128i wk =
            _mm_add_epi32(w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
        state1[l] = _mm_sha256rnds2_epu32(state1[l], state0[l], wk);
        wk = _mm_shuffle_epi32(wk, 0x0E);
        state0[l] = _mm_sha256rnds2_epu32(state0[l], state1[l], wk);
      }
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      state0[l] = _mm_add_epi32(state0[l], save0[l]);
      state1[l] = _mm_add_epi32(state1[l], save1[l]);
    }
  }

  for (std::size_t l = 0; l < lanes; ++l) {
    __m128i tmp = _mm_shuffle_epi32(state0[l], 0x1B);                                   // FEBA
    __m128i s1 = _mm_shuffle_epi32(state1[l], 0xB1);                                    // DCHG
    const __m128i out0 = _mm_blend_epi16(tmp, s1, 0xF0);                                // DCBA
    const __m128i out1 = _mm_alignr_epi8(s1, tmp, 8);                                   // HGFE
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&states[l][0]), out0);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&states[l][4]), out1);
  }
}
#endif  // G2G_HAVE_SHA_NI

#if defined(G2G_HAVE_AVX2)
// AVX2 4-lane SIMD kernel: transposed layout, one 32-bit element per lane in
// each vector, so the scalar FIPS 180-4 rounds run verbatim on all lanes at
// once. Lanes beyond `lanes` are padded with lane 0 and never stored back.
// The macros (instead of helper lambdas) keep every intrinsic inside this
// target("avx2") function so nothing fails to inline across target levels.
#define G2G_VROTR(x, n) _mm_or_si128(_mm_srli_epi32((x), (n)), _mm_slli_epi32((x), 32 - (n)))
__attribute__((target("avx2"))) void compress_multi_avx2(std::uint32_t* const* states,
                                                         const std::uint8_t* const* blocks,
                                                         std::size_t lanes, std::size_t count) {
  const std::uint8_t* lane_blocks[kSha256MaxLanes];
  for (std::size_t l = 0; l < kSha256MaxLanes; ++l) {
    lane_blocks[l] = blocks[l < lanes ? l : 0];
  }

  // hs[j] holds state word j for all four lanes.
  __m128i hs[8];
  alignas(16) std::uint32_t tmp[4];
  for (int j = 0; j < 8; ++j) {
    hs[j] = _mm_set_epi32(static_cast<int>(states[3 < lanes ? 3 : 0][j]),
                          static_cast<int>(states[2 < lanes ? 2 : 0][j]),
                          static_cast<int>(states[1 < lanes ? 1 : 0][j]),
                          static_cast<int>(states[0][j]));
  }

  for (std::size_t blk = 0; blk < count; ++blk) {
    __m128i w[64];
    for (int i = 0; i < 16; ++i) {
      std::uint32_t lw[kSha256MaxLanes];
      for (std::size_t l = 0; l < kSha256MaxLanes; ++l) {
        const std::uint8_t* b = lane_blocks[l] + 64 * blk + 4 * i;
        lw[l] = (static_cast<std::uint32_t>(b[0]) << 24) |
                (static_cast<std::uint32_t>(b[1]) << 16) |
                (static_cast<std::uint32_t>(b[2]) << 8) | static_cast<std::uint32_t>(b[3]);
      }
      w[i] = _mm_set_epi32(static_cast<int>(lw[3]), static_cast<int>(lw[2]),
                           static_cast<int>(lw[1]), static_cast<int>(lw[0]));
    }
    for (int i = 16; i < 64; ++i) {
      const __m128i w15 = w[i - 15];
      const __m128i w2 = w[i - 2];
      const __m128i s0 =
          _mm_xor_si128(_mm_xor_si128(G2G_VROTR(w15, 7), G2G_VROTR(w15, 18)),
                        _mm_srli_epi32(w15, 3));
      const __m128i s1 =
          _mm_xor_si128(_mm_xor_si128(G2G_VROTR(w2, 17), G2G_VROTR(w2, 19)),
                        _mm_srli_epi32(w2, 10));
      w[i] = _mm_add_epi32(_mm_add_epi32(w[i - 16], s0), _mm_add_epi32(w[i - 7], s1));
    }

    __m128i a = hs[0], b = hs[1], c = hs[2], d = hs[3];
    __m128i e = hs[4], f = hs[5], g = hs[6], h = hs[7];

    for (int i = 0; i < 64; ++i) {
      const __m128i s1 =
          _mm_xor_si128(_mm_xor_si128(G2G_VROTR(e, 6), G2G_VROTR(e, 11)), G2G_VROTR(e, 25));
      const __m128i ch = _mm_xor_si128(_mm_and_si128(e, f), _mm_andnot_si128(e, g));
      const __m128i t1 = _mm_add_epi32(
          _mm_add_epi32(_mm_add_epi32(h, s1), _mm_add_epi32(ch, w[i])),
          _mm_set1_epi32(static_cast<int>(kK[i])));
      const __m128i s0 =
          _mm_xor_si128(_mm_xor_si128(G2G_VROTR(a, 2), G2G_VROTR(a, 13)), G2G_VROTR(a, 22));
      const __m128i maj = _mm_xor_si128(
          _mm_xor_si128(_mm_and_si128(a, b), _mm_and_si128(a, c)), _mm_and_si128(b, c));
      const __m128i t2 = _mm_add_epi32(s0, maj);
      h = g;
      g = f;
      f = e;
      e = _mm_add_epi32(d, t1);
      d = c;
      c = b;
      b = a;
      a = _mm_add_epi32(t1, t2);
    }

    hs[0] = _mm_add_epi32(hs[0], a);
    hs[1] = _mm_add_epi32(hs[1], b);
    hs[2] = _mm_add_epi32(hs[2], c);
    hs[3] = _mm_add_epi32(hs[3], d);
    hs[4] = _mm_add_epi32(hs[4], e);
    hs[5] = _mm_add_epi32(hs[5], f);
    hs[6] = _mm_add_epi32(hs[6], g);
    hs[7] = _mm_add_epi32(hs[7], h);
  }

  for (int j = 0; j < 8; ++j) {
    _mm_store_si128(reinterpret_cast<__m128i*>(tmp), hs[j]);
    for (std::size_t l = 0; l < lanes; ++l) states[l][j] = tmp[l];
  }
}
#undef G2G_VROTR
#endif  // G2G_HAVE_AVX2

}  // namespace

bool sha256_multi_backend_available(Sha256MultiBackend backend) {
  switch (backend) {
    case Sha256MultiBackend::kShaNi:
      return sha_ni_available();
    case Sha256MultiBackend::kAvx2:
      return avx2_available();
    case Sha256MultiBackend::kAuto:
    case Sha256MultiBackend::kScalar:
      return true;
  }
  return false;
}

void sha256_compress_multi(std::uint32_t* const* states, const std::uint8_t* const* blocks,
                           std::size_t lanes, std::size_t blocks_per_lane,
                           Sha256MultiBackend backend) {
  if (lanes == 0 || blocks_per_lane == 0) return;

  Sha256MultiBackend resolved = backend;
  if (resolved == Sha256MultiBackend::kAuto) {
    if (!fast_path_enabled()) {
      resolved = Sha256MultiBackend::kScalar;
    } else if (sha_ni_available()) {
      resolved = Sha256MultiBackend::kShaNi;
    } else if (avx2_available() && lanes >= 2) {
      resolved = Sha256MultiBackend::kAvx2;
    } else {
      resolved = Sha256MultiBackend::kScalar;
    }
  }

#if defined(G2G_HAVE_SHA_NI)
  if (resolved == Sha256MultiBackend::kShaNi && sha_ni_available()) {
    compress_multi_shani(states, blocks, lanes, blocks_per_lane);
    return;
  }
#endif
#if defined(G2G_HAVE_AVX2)
  if (resolved == Sha256MultiBackend::kAvx2 && avx2_available()) {
    compress_multi_avx2(states, blocks, lanes, blocks_per_lane);
    return;
  }
#endif
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t b = 0; b < blocks_per_lane; ++b) {
      compress_block_scalar(states[l], blocks[l] + 64 * b);
    }
  }
}

void Sha256::reset() {
  state_ = kSha256InitState;
  length_ = 0;
  buffered_ = 0;
}

void Sha256::compress(const std::uint8_t block[64]) { compress_block_scalar(state_.data(), block); }

void Sha256::compress_many(const std::uint8_t* blocks, std::size_t count) {
#if defined(G2G_HAVE_SHA_NI)
  if (sha_accelerated()) {
    compress_blocks_shani(state_.data(), blocks, count);
    return;
  }
#endif
  for (std::size_t i = 0; i < count; ++i) compress(blocks + 64 * i);
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
      compress_many(buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  const std::size_t whole = (data.size() - pos) / 64;
  if (whole > 0) {
    compress_many(data.data() + pos, whole);
    pos += whole * 64;
  }
  if (pos < data.size()) {
    std::memcpy(buffer_.data(), data.data() + pos, data.size() - pos);
    buffered_ = data.size() - pos;
  }
}

Digest Sha256::finish() {
  const std::uint64_t bit_len = length_ * 8;
  // One-shot padding: 0x80, zeros up to the length field, then the big-endian
  // bit count — one or two compressions, never a per-byte update loop.
  std::array<std::uint8_t, 128> pad{};
  std::memcpy(pad.data(), buffer_.data(), buffered_);
  pad[buffered_] = 0x80;
  const std::size_t pad_blocks = (buffered_ < 56) ? 1 : 2;
  std::uint8_t* len_be = pad.data() + 64 * pad_blocks - 8;
  for (int i = 0; i < 8; ++i) len_be[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  compress_many(pad.data(), pad_blocks);
  buffered_ = 0;

  Digest out{};
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
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
