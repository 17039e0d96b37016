// Differential tests pinning the crypto fast path to its reference
// implementations. Every accelerated routine (SHA-NI compression, the fused
// HMAC finish under precomputed midstates, the heavy HMAC chain, the
// fixed-base and per-key Schnorr tables, the Montgomery kernels) must be
// bit-identical to the straight-line code it replaces: golden vectors anchor
// both sides to the standards, and randomized corpora compare fast vs
// reference over thousands of inputs. HMAC answers to a test-local RFC 2104
// construction built only on the incremental Sha256 context.
// The final tests close the loop end to end: a full experiment serializes to
// byte-identical JSON with the fast path on or off, and with the suites'
// per-signer memos cold or warm.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "g2g/core/experiment.hpp"
#include "g2g/core/json.hpp"
#include "g2g/crypto/fastpath.hpp"
#include "g2g/crypto/hmac.hpp"
#include "g2g/crypto/key_memo.hpp"
#include "g2g/crypto/montgomery.hpp"
#include "g2g/crypto/schnorr.hpp"
#include "g2g/crypto/sha256.hpp"
#include "g2g/crypto/suite.hpp"
#include "g2g/crypto/uint256.hpp"

namespace g2g::crypto {
namespace {

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next() & 0xff);
  return out;
}

std::string hex(const Digest& d) {
  static const char* k = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : d) {
    out.push_back(k[b >> 4]);
    out.push_back(k[b & 0xf]);
  }
  return out;
}

// RFC 2104 HMAC-SHA256 built only on the incremental Sha256 context: a key
// longer than a block is hashed first, then H((K ^ opad) || H((K ^ ipad) ||
// m)). The independent oracle for HmacKey, which hmac_sha256 is.
Digest rfc2104_hmac(BytesView key, BytesView message) {
  std::array<std::uint8_t, 64> k{};
  if (key.size() > k.size()) {
    const Digest d = sha256(key);
    std::copy(d.begin(), d.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }
  std::array<std::uint8_t, 64> ipad{};
  std::array<std::uint8_t, 64> opad{};
  for (std::size_t i = 0; i < k.size(); ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }
  Sha256 inner;
  inner.update(ipad);
  inner.update(message);
  const Digest inner_digest = inner.finish();
  Sha256 outer;
  outer.update(opad);
  outer.update(digest_view(inner_digest));
  return outer.finish();
}

/// The heavy HMAC chain of hmac.hpp, on the RFC 2104 oracle.
Digest rfc2104_heavy_hmac(BytesView message, BytesView seed, std::uint32_t iterations) {
  const Digest m_digest = sha256(message);
  Digest h = rfc2104_hmac(seed, message);
  for (std::uint32_t i = 0; i < iterations; ++i) {
    Bytes link(h.begin(), h.end());
    link.insert(link.end(), m_digest.begin(), m_digest.end());
    h = rfc2104_hmac(seed, link);
  }
  return h;
}

// Key lengths around the block size: empty, short, a FastSuite MAC key, one
// short of a block, a block, one over (hashed first), RFC 4231's 131 bytes.
constexpr std::size_t kHmacKeyLengths[] = {0, 1, 32, 63, 64, 65, 131};

// -- SHA-256 ------------------------------------------------------------------

TEST(FastPathDiff, Sha256GoldenVectorsHoldOnBothPaths) {
  const struct {
    const char* msg;
    const char* digest;
  } vectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
  };
  for (const bool fast : {true, false}) {
    const FastPathScope scope(fast);
    for (const auto& v : vectors) {
      EXPECT_EQ(hex(sha256(to_bytes(v.msg))), v.digest) << "fast=" << fast;
    }
  }
}

TEST(FastPathDiff, Sha256FastMatchesReferenceOnRandomCorpus) {
  Rng rng(0x5a5a5a);
  // Lengths chosen to hit every padding branch: empty, sub-block, the 55/56/
  // 63/64 one-vs-two-pad-block boundaries, multi-block, and long runs that
  // exercise the multi-block hardware loop.
  std::vector<std::size_t> lengths{0, 1, 3, 55, 56, 57, 63, 64, 65, 127, 128, 1000};
  for (int i = 0; i < 40; ++i) lengths.push_back(static_cast<std::size_t>(rng.next() % 4096));
  for (const std::size_t n : lengths) {
    const Bytes data = random_bytes(rng, n);
    Digest fast;
    Digest ref;
    {
      const FastPathScope scope(true);
      fast = sha256(data);
    }
    {
      const FastPathScope scope(false);
      ref = sha256(data);
    }
    EXPECT_EQ(fast, ref) << "length " << n;
  }
}

TEST(FastPathDiff, Sha256EveryLengthTo130MatchesGolden) {
  // Every length 0..130 of the pattern byte[i] = 31 i + 7: one or two padding
  // blocks, with and without whole blocks in front. The golden value is the
  // SHA-256 of the 131 concatenated digests, from python3's hashlib.
  Bytes pattern(130);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::uint8_t>(31 * i + 7);
  }
  for (const bool fast : {true, false}) {
    const FastPathScope scope(fast);
    Bytes digests;
    for (std::size_t n = 0; n <= pattern.size(); ++n) {
      const Digest d = sha256(BytesView(pattern.data(), n));
      digests.insert(digests.end(), d.begin(), d.end());
    }
    EXPECT_EQ(hex(sha256(digests)),
              "c6e4e8706aad569e79b1296ad67e984c018330dca4cd1bc520b46a1d8c1abb05")
        << "fast=" << fast;
  }
}

TEST(FastPathDiff, Sha256ChunkedUpdatesMatchOneShot) {
  Rng rng(0xC0FFEE);
  const Bytes data = random_bytes(rng, 3000);
  for (const bool fast : {true, false}) {
    const FastPathScope scope(fast);
    const Digest oneshot = sha256(data);
    for (int trial = 0; trial < 20; ++trial) {
      Sha256 ctx;
      std::size_t off = 0;
      while (off < data.size()) {
        const std::size_t chunk =
            std::min<std::size_t>(1 + rng.next() % 257, data.size() - off);
        ctx.update(BytesView(data.data() + off, chunk));
        // An empty view (null data()) between chunks, usually with bytes
        // buffered: HmacKey::mac(data) feeds exactly this.
        ctx.update(BytesView());
        off += chunk;
      }
      EXPECT_EQ(ctx.finish(), oneshot) << "fast=" << fast << " trial " << trial;
    }
    Sha256 empty;
    empty.update(BytesView());
    EXPECT_EQ(empty.finish(), sha256(Bytes{})) << "fast=" << fast;
  }
}

// -- HMAC and the heavy HMAC chain --------------------------------------------

TEST(FastPathDiff, HmacRfc4231GoldenVectorHoldsOnBothPaths) {
  const Bytes key(20, 0x0b);
  const Bytes data = to_bytes("Hi There");
  for (const bool fast : {true, false}) {
    const FastPathScope scope(fast);
    EXPECT_EQ(hex(hmac_sha256(key, data)),
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7")
        << "fast=" << fast;
    EXPECT_EQ(HmacKey(key).mac(data), hmac_sha256(key, data)) << "fast=" << fast;
  }
}

TEST(FastPathDiff, HmacKeyMatchesOneShotOnRandomCorpus) {
  Rng rng(0x44AC);
  for (int i = 0; i < 60; ++i) {
    // Keys straddling the block size hit the hashed-key branch.
    const Bytes key = random_bytes(rng, rng.next() % 96);
    const Bytes a = random_bytes(rng, rng.next() % 300);
    const Bytes b = random_bytes(rng, rng.next() % 300);
    const HmacKey hk(key);
    EXPECT_EQ(hk.mac(a), hmac_sha256(key, a));
    EXPECT_EQ(hk.mac(a), rfc2104_hmac(key, a));
    Bytes ab = a;
    ab.insert(ab.end(), b.begin(), b.end());
    EXPECT_EQ(hk.mac(a, b), hmac_sha256(key, ab));
    EXPECT_EQ(hk.mac(a, b), rfc2104_hmac(key, ab));
  }
}

TEST(FastPathDiff, HmacKeyMatchesRfc2104AtEveryLength) {
  // Every message length 0..300: zero to four whole blocks in place, then a
  // tail that pads to one block (0..55 bytes) or two (56..63).
  Rng rng(0x2104);
  const Bytes message = random_bytes(rng, 300);
  for (const std::size_t key_len : kHmacKeyLengths) {
    const Bytes key = random_bytes(rng, key_len);
    for (const bool fast : {true, false}) {
      const FastPathScope scope(fast);
      const HmacKey hk(key);
      for (std::size_t n = 0; n <= message.size(); ++n) {
        const BytesView m(message.data(), n);
        EXPECT_EQ(hk.mac(m), rfc2104_hmac(key, m))
            << "key " << key_len << ", length " << n << ", fast=" << fast;
      }
    }
  }
}

TEST(FastPathDiff, HmacKeyTwoPartMacMatchesRfc2104AtEverySplit) {
  // mac(a, b) at every split of every length 0..130. Each part lives in its
  // own buffer between guard bytes, so reading past either end shows.
  Rng rng(0xA11B);
  const Bytes message = random_bytes(rng, 130);
  const Bytes guard(64, 0xEE);
  for (const std::size_t key_len : kHmacKeyLengths) {
    const Bytes key = random_bytes(rng, key_len);
    for (const bool fast : {true, false}) {
      const FastPathScope scope(fast);
      const HmacKey hk(key);
      for (std::size_t n = 0; n <= message.size(); ++n) {
        const Digest expect = rfc2104_hmac(key, BytesView(message.data(), n));
        for (std::size_t split = 0; split <= n; ++split) {
          Bytes a(message.begin(), message.begin() + static_cast<std::ptrdiff_t>(split));
          a.insert(a.end(), guard.begin(), guard.end());
          Bytes b = guard;
          b.insert(b.end(), message.begin() + static_cast<std::ptrdiff_t>(split),
                   message.begin() + static_cast<std::ptrdiff_t>(n));
          EXPECT_EQ(hk.mac(BytesView(a).first(split), BytesView(b).subspan(guard.size())),
                    expect)
              << "key " << key_len << ", length " << n << ", split " << split
              << ", fast=" << fast;
        }
      }
    }
  }
}

TEST(FastPathDiff, HeavyHmacMatchesReference) {
  Rng rng(0x11EA);
  for (const std::uint32_t iterations : {1u, 2u, 3u, 64u, 257u, 1024u}) {
    const Bytes msg = random_bytes(rng, 1 + rng.next() % 700);
    const Bytes seed = random_bytes(rng, 1 + rng.next() % 48);
    const Digest ref = heavy_hmac_reference(msg, seed, iterations);
    EXPECT_EQ(ref, rfc2104_heavy_hmac(msg, seed, iterations)) << iterations;
    {
      const FastPathScope scope(true);
      EXPECT_EQ(heavy_hmac(msg, seed, iterations), ref) << iterations;
    }
    {
      const FastPathScope scope(false);
      EXPECT_EQ(heavy_hmac(msg, seed, iterations), ref) << iterations;
    }
  }
}

TEST(FastPathDiff, HeavyHmacEqualMatchesReferenceDigestComparison) {
  // The storage-proof verdict: byte-identical inputs are decided without a
  // chain, anything else runs both. Either way the verdict must be the
  // comparison of the two reference digests.
  Rng rng(0x5ea1ed);
  const Bytes msg = random_bytes(rng, 300);
  const Bytes seed = random_bytes(rng, 32);
  // The relay's side lives in buffers of its own, as in the audit loop.
  const Bytes relay_msg = msg;
  const Bytes relay_seed = seed;
  Bytes flipped_msg = msg;
  flipped_msg[17] ^= 0x40;
  Bytes flipped_seed = seed;
  flipped_seed[5] ^= 0x02;
  const Bytes empty;
  const Bytes relay_empty;
  // Side a is the source's recompute (msg_a, seed, 9 iterations); side b is
  // the relay's answer.
  const struct {
    const char* name;
    const Bytes& msg_a;
    const Bytes& msg_b;
    const Bytes& seed_b;
    std::uint32_t iterations_b;
    bool expect;
  } cases[] = {
      {"honest", msg, relay_msg, relay_seed, 9, true},
      {"flipped message byte", msg, flipped_msg, relay_seed, 9, false},
      {"flipped seed byte", msg, relay_msg, flipped_seed, 9, false},
      {"other iteration count", msg, relay_msg, relay_seed, 10, false},
      {"empty message", empty, relay_empty, relay_seed, 9, true},
  };
  for (const bool fast : {true, false}) {
    const FastPathScope scope(fast);
    for (const auto& c : cases) {
      const bool reference = digest_equal(heavy_hmac_reference(c.msg_a, seed, 9),
                                          heavy_hmac_reference(c.msg_b, c.seed_b, c.iterations_b));
      const bool verdict =
          heavy_hmac_equal(c.msg_a, seed, 9, c.msg_b, c.seed_b, c.iterations_b);
      EXPECT_EQ(verdict, reference) << c.name << ", fast=" << fast;
      EXPECT_EQ(verdict, c.expect) << c.name << ", fast=" << fast;
    }
  }
}

// -- Schnorr: fixed-base tables and the engine --------------------------------

// Honest and tampered inputs, each through both forms: the engine's verdict
// must equal the free function's, and the expected one.
void expect_verdicts_match_free_functions(const SchnorrEngine& engine, const SchnorrKeyPair& kp,
                                          const U256& other_key, const Bytes& msg,
                                          const SchnorrSignature& es,
                                          const SchnorrSignatureRS& rs,
                                          const std::string& where) {
  const SchnorrGroup& group = engine.group();
  Bytes flipped = msg;
  flipped[0] ^= 1;
  bool carry = false;
  const U256 one(1);
  const struct {
    const char* name;
    const U256& key;
    const Bytes& message;
    SchnorrSignature es;
    SchnorrSignatureRS rs;
    bool expect;
  } cases[] = {
      {"honest", kp.public_key, msg, es, rs, true},
      {"s + 1", kp.public_key, msg, {es.e, add(es.s, one, carry)},
       {rs.r, add(rs.s, one, carry)}, false},
      {"changed e / R", kp.public_key, msg, {add(es.e, one, carry), es.s},
       {add(rs.r, one, carry), rs.s}, false},
      {"flipped message byte", kp.public_key, flipped, es, rs, false},
      {"another signer's key", other_key, msg, es, rs, false},
      {"s = 0", kp.public_key, msg, {es.e, U256{}}, {rs.r, U256{}}, false},
      {"e = s = 0 / R = 1, s = 0", kp.public_key, msg, {U256{}, U256{}}, {one, U256{}}, false},
  };
  for (const auto& c : cases) {
    const bool es_verdict = engine.verify(c.key, c.message, c.es);
    EXPECT_EQ(es_verdict, schnorr_verify(group, c.key, c.message, c.es))
        << c.name << ", " << where;
    EXPECT_EQ(es_verdict, c.expect) << c.name << ", " << where;
    const bool rs_verdict = engine.verify_rs(c.key, c.message, c.rs);
    EXPECT_EQ(rs_verdict, schnorr_rs_verify(group, c.key, c.message, c.rs))
        << c.name << ", " << where;
    EXPECT_EQ(rs_verdict, c.expect) << c.name << ", " << where;
  }
}

TEST(FastPathDiff, SchnorrEngineMatchesFreeFunctions) {
  const Bytes msg = to_bytes("proof of relay, hop 3");
  for (const SchnorrGroup* group : {&SchnorrGroup::small_group(), &SchnorrGroup::default_group()}) {
    const SchnorrEngine engine(*group);
    for (const bool fast : {true, false}) {
      const FastPathScope scope(fast);
      const std::string where = "p=" + group->p.to_hex() + ", fast=" + std::to_string(fast);
      // Identical RNG draws => identical keys and signatures, bit for bit.
      Rng rng_a(42);
      Rng rng_b(42);
      const SchnorrKeyPair kp = engine.keygen(rng_a);
      const SchnorrKeyPair kp_free = schnorr_keygen(*group, rng_b);
      EXPECT_EQ(kp.secret, kp_free.secret) << where;
      EXPECT_EQ(kp.public_key, kp_free.public_key) << where;
      const SchnorrKeyPair other = engine.keygen(rng_a);
      EXPECT_EQ(other.public_key, schnorr_keygen(*group, rng_b).public_key) << where;

      const SchnorrSignature es = engine.sign(kp.secret, msg, rng_a);
      const SchnorrSignature es_free = schnorr_sign(*group, kp.secret, msg, rng_b);
      EXPECT_EQ(es.e, es_free.e) << where;
      EXPECT_EQ(es.s, es_free.s) << where;
      const SchnorrSignatureRS rs = engine.sign_rs(kp.secret, msg, rng_a);
      const SchnorrSignatureRS rs_free = schnorr_rs_sign(*group, kp.secret, msg, rng_b);
      EXPECT_EQ(rs.r, rs_free.r) << where;
      EXPECT_EQ(rs.s, rs_free.s) << where;

      expect_verdicts_match_free_functions(engine, kp, other.public_key, msg, es, rs, where);

      // y^e through the per-key tables. verify never range-checks y, so keys
      // at and past p must reduce like pow_mod does.
      const U256 one(1);
      bool borrow = false;
      const U256 q_minus_1 = sub(group->q, one, borrow);
      const U256 all_ones = U256::from_hex(
          "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
      for (const U256& y : {U256(0), one, sub(group->p, one, borrow), group->p, all_ones}) {
        for (const U256& e : {U256(0), one, q_minus_1, random_below(rng_a, group->q)}) {
          EXPECT_EQ(engine.pow_key(y, e), pow_mod(y, e, group->p))
              << y.to_hex() << "^" << e.to_hex() << ", " << where;
        }
      }
      if (group != &SchnorrGroup::small_group()) continue;
      // More distinct keys than the memo holds, visited twice, so every table
      // is also rebuilt after the memo clears.
      Rng key_rng(7);
      std::vector<U256> keys;
      for (std::size_t i = 0; i < KeyMemo<FixedBaseTable>::kMaxKeys + 9; ++i) {
        keys.push_back(random_below(key_rng, group->p));
      }
      for (int round = 0; round < 2; ++round) {
        for (const U256& y : keys) {
          const U256 e = random_below(key_rng, group->q);
          EXPECT_EQ(engine.pow_key(y, e), pow_mod(y, e, group->p))
              << y.to_hex() << ", round " << round << ", " << where;
        }
      }
    }
  }
}

TEST(FastPathDiff, EngineVerifyMatchesFreeFunctionsWhenQBitsAreNotAMultipleOf8) {
  // Verification walks two 4-bit windows of y per 8-bit window of g. At 97
  // and 100 bits y has one window fewer than twice g's, so the last step has
  // no odd y window; verdicts must still be the free functions', on both
  // forms, valid and tampered, fast path on and off.
  const Bytes base_msg = to_bytes("proof of relay, hop 3");
  for (const std::size_t q_bits : {std::size_t{97}, std::size_t{100}}) {
    const SchnorrGroup group = SchnorrGroup::generate(128, q_bits, 0x6732 + q_bits);
    ASSERT_EQ(group.q.bit_length(), q_bits);
    const SchnorrEngine engine(group);
    for (const bool fast : {true, false}) {
      const FastPathScope scope(fast);
      const std::string where = "q bits " + std::to_string(q_bits) + ", fast=" +
                                std::to_string(fast);
      Rng rng(q_bits);
      const SchnorrKeyPair kp = engine.keygen(rng);
      const SchnorrKeyPair other = engine.keygen(rng);
      std::size_t top_window_digits = 0;  // e or s reaching y's last window
      for (std::uint8_t i = 0; i < 16; ++i) {
        Bytes msg = base_msg;
        msg.push_back(i);
        const SchnorrSignature es = engine.sign(kp.secret, msg, rng);
        const SchnorrSignatureRS rs = engine.sign_rs(kp.secret, msg, rng);
        for (const U256& v : {es.e, es.s, rs.s}) {
          if (v.bit_length() > (q_bits - 1) / 4 * 4) ++top_window_digits;
        }
        expect_verdicts_match_free_functions(engine, kp, other.public_key, msg, es, rs, where);
      }
      EXPECT_GT(top_window_digits, 0u) << where;
    }
  }
}

TEST(FastPathDiff, SchnorrSuiteSignaturesIdenticalFastOnAndOff) {
  const SuitePtr suite = make_schnorr_suite(SchnorrGroup::small_group());
  Rng rng_on(9);
  Rng rng_off(9);
  KeyPair kp_on;
  KeyPair kp_off;
  Bytes sig_on;
  Bytes sig_off;
  const Bytes msg = to_bytes("por certificate");
  {
    const FastPathScope scope(true);
    kp_on = suite->keygen(rng_on);
    sig_on = suite->sign(kp_on.secret_key, msg);
  }
  {
    const FastPathScope scope(false);
    kp_off = suite->keygen(rng_off);
    sig_off = suite->sign(kp_off.secret_key, msg);
  }
  EXPECT_EQ(kp_on.public_key, kp_off.public_key);
  EXPECT_EQ(kp_on.secret_key, kp_off.secret_key);
  EXPECT_EQ(sig_on, sig_off);
  // Cross-verify: a signature made on one path verifies on the other.
  {
    const FastPathScope scope(false);
    EXPECT_TRUE(suite->verify(kp_on.public_key, msg, sig_on));
  }
  {
    const FastPathScope scope(true);
    EXPECT_TRUE(suite->verify(kp_off.public_key, msg, sig_off));
  }
}

TEST(FastPathDiff, SchnorrRsSuiteSignaturesIdenticalFastOnAndOff) {
  const SuitePtr suite = make_schnorr_rs_suite(SchnorrGroup::small_group());
  Rng rng_on(9);
  Rng rng_off(9);
  KeyPair kp_on;
  KeyPair kp_off;
  Bytes sig_on;
  Bytes sig_off;
  const Bytes msg = to_bytes("por certificate");
  {
    const FastPathScope scope(true);
    kp_on = suite->keygen(rng_on);
    sig_on = suite->sign(kp_on.secret_key, msg);
  }
  {
    const FastPathScope scope(false);
    kp_off = suite->keygen(rng_off);
    sig_off = suite->sign(kp_off.secret_key, msg);
  }
  EXPECT_EQ(kp_on.public_key, kp_off.public_key);
  EXPECT_EQ(sig_on, sig_off);
  {
    const FastPathScope scope(false);
    EXPECT_TRUE(suite->verify(kp_on.public_key, msg, sig_on));
  }
  {
    const FastPathScope scope(true);
    EXPECT_TRUE(suite->verify(kp_off.public_key, msg, sig_off));
  }
}

// -- Montgomery arithmetic vs the classic oracle ------------------------------
//
// Differential corpus for the modulus-taking routines in src/crypto — the
// mod-param-diff-coverage lint rule requires every such routine to be named
// here. Covered: mod, add_mod, sub_mod, mul_mod, pow_mod, pow_mod_fast,
// MontgomeryParams::for_modulus, mont_mul, mont_mul_portable, mont_mul_adx,
// to_mont, from_mont, mont_reduce, mont_pow, FixedBaseTable. The classic
// schoolbook reducers in uint256.cpp are the oracle; the C CIOS kernel must
// match them bit for bit, and the asm kernel must match both.

U256 random_u256(Rng& rng) {
  U256 out;
  for (auto& l : out.limb) l = rng.next();
  return out;
}

// 2^bit, for bit < 256.
U256 pow2(std::size_t bit) {
  U256 out;
  out.limb[bit / 64] = std::uint64_t{1} << (bit % 64);
  return out;
}

// 2^bits - 1: the lowest `bits` bits set, for bits <= 256.
U256 low_ones(std::size_t bits) {
  U256 out;
  for (std::size_t i = 0; i < bits; ++i) out.limb[i / 64] |= std::uint64_t{1} << (i % 64);
  return out;
}

// Production moduli (both Schnorr groups' p and q), small odd moduli, and
// limb-boundary patterns (2^64-1 in various positions, the 2^256-1 maximum).
std::vector<U256> corpus_moduli() {
  const SchnorrGroup& small = SchnorrGroup::small_group();
  const SchnorrGroup& full = SchnorrGroup::default_group();
  return {
      full.p,
      full.q,
      small.p,
      small.q,
      U256(3),
      U256(0xffffffffffffffffULL),  // 2^64 - 1: all carries in limb 0
      U256::from_hex("ffffffffffffffff0000000000000001"),
      U256::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffff"
                     "ffffffffffffffff"),  // 2^256 - 1: the maximum modulus
  };
}

TEST(MontgomeryDiff, MontMulMatchesClassicMulModOnSeededRandomSweep) {
  Rng rng(0x3019A11);
  for (const U256& m : corpus_moduli()) {
    const MontgomeryParams params = MontgomeryParams::for_modulus(m);
    for (int i = 0; i < 25; ++i) {
      const U256 a = mod(random_u256(rng), m);
      const U256 b = mod(random_u256(rng), m);
      const U256 expect = mul_mod(a, b, m);
      // Full round trip: convert both operands, multiply, convert back.
      const U256 ab_mont = mont_mul(to_mont(a, params), to_mont(b, params), params);
      EXPECT_EQ(from_mont(ab_mont, params), expect) << m.to_hex();
      // One-conversion form (what SchnorrEngine::mul_q uses): the second
      // operand rides along unconverted.
      EXPECT_EQ(mont_mul(to_mont(a, params), b, params), expect) << m.to_hex();
    }
  }
}

TEST(MontgomeryDiff, MontMulDirectedEdgeOperands) {
  bool borrow = false;
  for (const U256& m : corpus_moduli()) {
    if (m == U256(3)) continue;  // m-2 below degenerates; covered by sweep
    const MontgomeryParams params = MontgomeryParams::for_modulus(m);
    const U256 m_minus_1 = sub(m, U256(1), borrow);
    const U256 m_minus_2 = sub(m, U256(2), borrow);
    const U256 edges[] = {U256(0), U256(1), m_minus_2, m_minus_1};
    for (const U256& a : edges) {
      for (const U256& b : edges) {
        EXPECT_EQ(from_mont(mont_mul(to_mont(a, params), to_mont(b, params), params), params),
                  mul_mod(a, b, m))
            << a.to_hex() << " * " << b.to_hex() << " mod " << m.to_hex();
      }
    }
  }
}

// The schoolbook oracle for one Montgomery product: a·b·R⁻¹ mod m is the one
// residue x below m with x·R ≡ a·b (mod m), and params.one is R mod m.
bool is_mont_product(const U256& x, const U256& a, const U256& b,
                     const MontgomeryParams& params) {
  return x < params.m && mul_mod(x, params.one, params.m) == mul_mod(a, b, params.m);
}

// corpus_moduli() plus seeded random odd moduli on both sides of each limb
// boundary, so the kernels' carries are exercised at every top-limb width.
// The groups are generated on the schoolbook route: with the fast path on
// their Miller–Rabin runs mont_pow, and a broken kernel would keep the prime
// search from ever ending instead of failing the comparison.
std::vector<U256> kernel_moduli() {
  {
    const FastPathScope schoolbook(false);
    (void)SchnorrGroup::default_group();
    (void)SchnorrGroup::small_group();
  }
  std::vector<U256> out = corpus_moduli();
  Rng rng(0x4D0D);
  for (const std::size_t bits : {63u, 64u, 65u, 127u, 128u, 129u, 191u, 192u, 193u, 255u, 256u}) {
    U256 m = random_u256(rng);
    if (bits < 256) m.limb[bits / 64] &= (std::uint64_t{1} << (bits % 64)) - 1;
    for (std::size_t limb = (bits + 63) / 64; limb < 4; ++limb) m.limb[limb] = 0;
    m.limb[(bits - 1) / 64] |= std::uint64_t{1} << ((bits - 1) % 64);
    m.limb[0] |= 1;
    out.push_back(m);
  }
  return out;
}

// Operand pairs for one modulus. The directed edges are every pair of
// {0, 1, m-1, a random residue}, and each of those against operands at or
// above m — m, m+1, 2^256-1 and a random U256 — in both positions (mont_mul
// needs only one operand below m). Then a seeded random sweep of both kinds.
std::vector<std::pair<U256, U256>> kernel_operands(const U256& m, Rng& rng) {
  bool borrow = false;
  bool carry = false;
  const U256 all_ones = low_ones(256);
  const std::vector<U256> below{U256(0), U256(1), sub(m, U256(1), borrow),
                                mod(random_u256(rng), m)};
  std::vector<U256> above{m, all_ones, random_u256(rng)};
  if (m != all_ones) above.push_back(add(m, U256(1), carry));
  std::vector<std::pair<U256, U256>> out;
  for (const U256& a : below) {
    for (const U256& b : below) out.emplace_back(a, b);
    for (const U256& b : above) {
      out.emplace_back(a, b);
      out.emplace_back(b, a);
    }
  }
  for (int i = 0; i < 100; ++i) {
    const U256 residue = mod(random_u256(rng), m);
    out.emplace_back(residue, mod(random_u256(rng), m));
    out.emplace_back(random_u256(rng), residue);
    out.emplace_back(residue, random_u256(rng));
  }
  return out;
}

TEST(MontgomeryDiff, PortableKernelMatchesSchoolbookMulMod) {
  Rng rng(0xC105);
  for (const U256& m : kernel_moduli()) {
    const MontgomeryParams params = MontgomeryParams::for_modulus(m);
    for (const auto& [a, b] : kernel_operands(m, rng)) {
      EXPECT_TRUE(is_mont_product(mont_mul_portable(a, b, params), a, b, params))
          << a.to_hex() << " * " << b.to_hex() << " mod " << m.to_hex();
    }
  }
}

TEST(MontgomeryDiff, AdxKernelMatchesPortableAndSchoolbook) {
  if (!adx_available()) GTEST_SKIP() << "this CPU has no BMI2+ADX; mont_mul runs the C kernel";
  Rng rng(0xAD0C);
  for (const U256& m : kernel_moduli()) {
    const MontgomeryParams params = MontgomeryParams::for_modulus(m);
    for (const auto& [a, b] : kernel_operands(m, rng)) {
      const U256 x = mont_mul_adx(a, b, params);
      EXPECT_EQ(x, mont_mul_portable(a, b, params))
          << a.to_hex() << " * " << b.to_hex() << " mod " << m.to_hex();
      EXPECT_TRUE(is_mont_product(x, a, b, params))
          << a.to_hex() << " * " << b.to_hex() << " mod " << m.to_hex();
      EXPECT_EQ(mont_mul(a, b, params), x);  // the dispatch runs this kernel
    }
  }
}

TEST(MontgomeryDiff, ToMontReducesOperandsAtOrAboveTheModulus) {
  // The documented contract: to_mont accepts ANY U256 and folds x >= m down
  // to x mod m, so the round trip equals the classic reduction. mont_reduce
  // (the Schnorr challenge reduction) must equal it in one product.
  Rng rng(0xF01DED);
  const U256 all_ones = U256::from_hex(
      "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
  for (const U256& m : corpus_moduli()) {
    if (m == all_ones) continue;  // nothing exceeds the maximum modulus
    const MontgomeryParams params = MontgomeryParams::for_modulus(m);
    bool carry = false;
    bool borrow = false;
    std::vector<U256> raws{U256(0), sub(m, U256(1), borrow), m, add(m, U256(1), carry),
                           all_ones};
    for (int i = 0; i < 40; ++i) raws.push_back(random_u256(rng));
    for (const U256& x : raws) {
      EXPECT_EQ(from_mont(to_mont(x, params), params), mod(x, m)) << x.to_hex();
      EXPECT_EQ(mont_reduce(x, params), mod(x, m)) << x.to_hex() << " mod " << m.to_hex();
    }
  }
}

TEST(MontgomeryDiff, ForModulusRejectsEvenAndTrivialModuli) {
  // gcd(m, 2^256) must be 1 and mont_pow needs m > 1: everything else is a
  // contract violation, refused up front rather than computed wrong.
  EXPECT_THROW((void)MontgomeryParams::for_modulus(U256(0)), std::invalid_argument);
  EXPECT_THROW((void)MontgomeryParams::for_modulus(U256(1)), std::invalid_argument);
  EXPECT_THROW((void)MontgomeryParams::for_modulus(U256(2)), std::invalid_argument);
  EXPECT_THROW((void)MontgomeryParams::for_modulus(U256(0x100)), std::invalid_argument);
  EXPECT_THROW((void)MontgomeryParams::for_modulus(
                   U256::from_hex("fffffffffffffffffffffffffffffffe")),
               std::invalid_argument);
  EXPECT_NO_THROW((void)MontgomeryParams::for_modulus(U256(3)));
}

TEST(MontgomeryDiff, PowModFastMatchesClassicPowMod) {
  Rng rng(0x9D15C0);
  bool borrow = false;
  for (const U256& m : corpus_moduli()) {
    const U256 m_minus_1 = sub(m, U256(1), borrow);
    std::vector<U256> bases{U256(0), U256(1), U256(2), m_minus_1, random_u256(rng)};
    std::vector<U256> exps{U256(0), U256(1), U256(2), m_minus_1, random_below(rng, m)};
    for (const U256& base : bases) {
      for (const U256& e : exps) {
        const U256 expect = pow_mod(base, e, m);
        {
          const FastPathScope scope(true);  // mont_pow
          EXPECT_EQ(pow_mod_fast(base, e, m), expect)
              << base.to_hex() << "^" << e.to_hex() << " mod " << m.to_hex();
        }
        {
          const FastPathScope scope(false);  // classic fallback
          EXPECT_EQ(pow_mod_fast(base, e, m), expect);
        }
      }
    }
  }
  // Even modulus: pow_mod_fast must fall back to the classic route even with
  // the fast path on (Montgomery requires an odd modulus).
  const U256 even = U256(1000);
  const FastPathScope scope(true);
  for (int i = 0; i < 5; ++i) {
    const U256 base = random_u256(rng);
    const U256 e = U256(rng.next() % 1000);
    EXPECT_EQ(pow_mod_fast(base, e, even), pow_mod(base, e, even));
  }
}

TEST(MontgomeryDiff, MontPowMatchesClassicForGroupPrimes) {
  // Drive the fixed window directly (not through the pow_mod_fast gate) over
  // the production moduli: exponents at digit and limb boundaries, with long
  // zero runs, and every digit maximal, on the edge bases too.
  Rng rng(0x1ADDE2);
  for (const U256& m : {SchnorrGroup::default_group().p, SchnorrGroup::default_group().q,
                        SchnorrGroup::small_group().p}) {
    const MontgomeryParams params = MontgomeryParams::for_modulus(m);
    bool borrow = false;
    std::vector<U256> exps{U256(0),        U256(1),      U256(2),      U256(15),
                           U256(16),       U256(17),     low_ones(64), pow2(64),
                           low_ones(160),  pow2(255),    low_ones(256)};
    for (int i = 0; i < 4; ++i) exps.push_back(random_below(rng, m));
    const std::vector<U256> bases{U256(0), U256(1), sub(m, U256(1), borrow),
                                  mod(random_u256(rng), m)};
    for (const U256& base : bases) {
      for (const U256& e : exps) {
        EXPECT_EQ(from_mont(mont_pow(to_mont(base, params), e, params), params),
                  pow_mod(base, e, m))
            << base.to_hex() << "^" << e.to_hex() << " mod " << m.to_hex();
      }
    }
  }
}

TEST(MontgomeryDiff, ModularLinearityBridgesAddSubAndMont) {
  // add_mod / sub_mod act on residues, not representations, so they must
  // commute with the Montgomery map: (a ± b)~ == a~ ± b~.
  Rng rng(0xADD5);
  for (const U256& m : corpus_moduli()) {
    const MontgomeryParams params = MontgomeryParams::for_modulus(m);
    for (int i = 0; i < 10; ++i) {
      const U256 a = mod(random_u256(rng), m);
      const U256 b = mod(random_u256(rng), m);
      EXPECT_EQ(add_mod(to_mont(a, params), to_mont(b, params), m),
                to_mont(add_mod(a, b, m), params));
      EXPECT_EQ(sub_mod(to_mont(a, params), to_mont(b, params), m),
                to_mont(sub_mod(a, b, m), params));
    }
  }
}

TEST(FastPathDiff, FixedBaseTableMatchesPowMod) {
  // The engine builds its g table 8 bits wide and its per-key tables 4 bits
  // wide, both sized from q's bit length. Each must give pow_mod's residue
  // for every exponent it covers.
  Rng rng(0x7AB1E);
  for (const SchnorrGroup* group : {&SchnorrGroup::small_group(), &SchnorrGroup::default_group()}) {
    const MontgomeryParams params = MontgomeryParams::for_modulus(group->p);
    const std::size_t q_bits = group->q.bit_length();
    bool borrow = false;
    const U256 y = random_below(rng, group->p);
    for (const unsigned width : {4u, 8u}) {
      for (const U256& base : {group->g, y}) {
        const FixedBaseTable table(base, params, q_bits, width);
        const std::size_t bits = table.exp_bits();
        EXPECT_EQ(bits, (q_bits + width - 1) / width * width);
        std::vector<U256> exps{U256(0), U256(1), sub(group->q, U256(1), borrow),
                               low_ones(bits),       // every digit maximal
                               pow2(bits - 1)};      // only the top window nonzero
        for (int i = 0; i < 20; ++i) exps.push_back(random_below(rng, group->q));
        for (const U256& e : exps) {
          EXPECT_EQ(table.pow(e), pow_mod(base, e, group->p))
              << "width " << width << ", " << base.to_hex() << "^" << e.to_hex();
        }
      }
    }
  }
  // A digit must never straddle a limb, and the exponent must fit a U256.
  const MontgomeryParams params = MontgomeryParams::for_modulus(SchnorrGroup::small_group().p);
  for (const unsigned width : {0u, 3u, 5u, 32u}) {
    EXPECT_THROW(FixedBaseTable(U256(2), params, 96, width), std::invalid_argument) << width;
  }
  EXPECT_THROW(FixedBaseTable(U256(2), params, 257, 4), std::invalid_argument);
}

TEST(MontgomeryDiff, FixedBaseTablePowIdenticalFastOnAndOff) {
  // With the fast path off the engine skips its tables: y^e is pow_mod and
  // a verification's g^s · y^e is mul_mod over two pow_mods. The tables must
  // reach the same residues whichever way the switch is set, through pow(),
  // through one accumulator shared by an 8-bit and a 4-bit table (left empty
  // when both exponents are zero), and through the engine's pow_key.
  Rng rng(0x7AB1E2);
  for (const SchnorrGroup* group : {&SchnorrGroup::small_group(), &SchnorrGroup::default_group()}) {
    const MontgomeryParams params = MontgomeryParams::for_modulus(group->p);
    const std::size_t q_bits = group->q.bit_length();
    const SchnorrEngine engine(*group);
    const U256 y = random_below(rng, group->p);
    const FixedBaseTable g_table(group->g, params, q_bits, 8);
    const FixedBaseTable y_table(y, params, q_bits, 4);
    for (int i = 0; i < 10; ++i) {
      // s = e = 0, then s = 0 alone, then e = 0 alone, then both random.
      const U256 s = i <= 1 ? U256{} : random_below(rng, group->q);
      const U256 e = i == 0 || i == 2 ? U256{} : random_below(rng, group->q);
      const U256 reference =
          mul_mod(pow_mod(group->g, s, group->p), pow_mod(y, e, group->p), group->p);
      for (const bool fast : {true, false}) {
        const FastPathScope scope(fast);
        const U256 g_s = pow_mod(group->g, s, group->p);
        const U256 y_e = pow_mod(y, e, group->p);
        EXPECT_EQ(g_table.pow(s), g_s) << s.to_hex() << ", fast=" << fast;
        EXPECT_EQ(y_table.pow(e), y_e) << e.to_hex() << ", fast=" << fast;
        EXPECT_EQ(engine.pow_key(y, e), y_e) << e.to_hex() << ", fast=" << fast;
        std::optional<U256> acc;
        g_table.mul_into(acc, s);
        y_table.mul_into(acc, e);
        if (s.is_zero() && e.is_zero()) {
          EXPECT_FALSE(acc.has_value()) << "fast=" << fast;
          EXPECT_EQ(reference, U256(1));
        } else {
          ASSERT_TRUE(acc.has_value()) << "fast=" << fast;
          EXPECT_EQ(from_mont(*acc, params), reference)
              << s.to_hex() << ", " << e.to_hex() << ", fast=" << fast;
        }
      }
    }
  }
}

// -- End to end: the serialized experiment is the oracle ----------------------

core::ExperimentConfig diff_config() {
  core::ExperimentConfig cfg;
  cfg.protocol = core::Protocol::G2GEpidemic;
  cfg.scenario = core::infocom05_scenario();
  cfg.scenario.trace_config.nodes = 16;
  cfg.scenario.trace_config.duration = Duration::days(2);
  cfg.scenario.window_start = TimePoint::from_seconds(8.0 * 3600.0);
  cfg.sim_window = Duration::hours(2);
  cfg.traffic_window = Duration::hours(1);
  cfg.mean_interarrival = Duration::seconds(30.0);
  cfg.deviation = proto::Behavior::Dropper;
  cfg.deviant_count = 4;
  cfg.seed = 11;
  return cfg;
}

// The (R,s) Schnorr workload on the small group, shortened: real public-key
// crypto costs ~100x the symmetric suite per call.
core::ExperimentConfig rs_config() {
  core::ExperimentConfig cfg = diff_config();
  cfg.suite = make_schnorr_rs_suite(SchnorrGroup::small_group());
  cfg.sim_window = Duration::hours(1);
  cfg.traffic_window = Duration::minutes(30.0);
  cfg.mean_interarrival = Duration::seconds(60.0);
  return cfg;
}

TEST(FastPathDiff, ExperimentJsonBitIdenticalWithWarmAndColdKeyMemo) {
  // A suite's per-signer memo outlives a run: rerunning on the same suite
  // starts with every key's table or pad state already built. Neither suite
  // may let that show in the serialized experiment.
  core::ExperimentConfig fast_cfg = diff_config();
  fast_cfg.suite = make_fast_suite();
  for (const core::ExperimentConfig& cfg : {fast_cfg, rs_config()}) {
    const std::string cold = core::to_json(core::run_experiment(cfg));
    const std::string warm = core::to_json(core::run_experiment(cfg));
    EXPECT_EQ(cold, warm) << cfg.suite->name();
  }
}

TEST(FastPathDiff, ExperimentJsonBitIdenticalWithGlobalFastPathOnAndOff) {
  std::string fast;
  std::string reference;
  {
    const FastPathScope scope(true);
    fast = core::to_json(core::run_experiment(diff_config()));
  }
  {
    const FastPathScope scope(false);
    reference = core::to_json(core::run_experiment(diff_config()));
  }
  EXPECT_EQ(fast, reference);
}

TEST(FastPathDiff, ExperimentJsonBitIdenticalWithRsSuiteFastPathOnAndOff) {
  // With the fast path on, the (R,s) suite verifies through one Montgomery
  // accumulator over the g table and the per-key tables, reduces challenges
  // with mont_reduce and runs DH through mont_pow; off, through pow_mod,
  // mul_mod and the schoolbook mod. The serialized experiment must not be
  // able to tell.
  const core::ExperimentConfig cfg = rs_config();
  std::string fast;
  std::string reference;
  {
    const FastPathScope scope(true);
    fast = core::to_json(core::run_experiment(cfg));
  }
  {
    const FastPathScope scope(false);
    reference = core::to_json(core::run_experiment(cfg));
  }
  EXPECT_EQ(fast, reference);
}

}  // namespace
}  // namespace g2g::crypto
