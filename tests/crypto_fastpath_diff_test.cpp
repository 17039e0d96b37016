// Differential tests pinning the production crypto to the test oracle
// (tests/oracle/). Every accelerated routine (SHA-NI compression, the fused
// HMAC finish under precomputed midstates, the heavy HMAC chain, the
// fixed-base and per-key Schnorr tables, the Montgomery kernels) must be
// bit-identical to straight-line code that shares no kernel with it: golden
// vectors anchor both sides to the standards, and randomized corpora compare
// production against the oracle over thousands of inputs. The SHA-NI rounds
// are also compared with the scalar rounds directly, on CPUs that have them.
// The final tests close the loop end to end: a full (R,s) experiment and a
// full FastSuite experiment serialize to byte-identical JSON on the
// production suite, which signs and verifies through its prepared keys, and
// on the oracle suite, which reaches its one-shot calls through the
// forwarding defaults.
//
// Names that say "on and off" or "both paths" compare production ("on")
// with the oracle ("off"); they keep the names they had when a process-wide
// switch chose between the two routes at run time.
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
#include "g2g/crypto/montgomery.hpp"
#include "g2g/crypto/schnorr.hpp"
#include "g2g/crypto/sha256.hpp"
#include "g2g/crypto/suite.hpp"
#include "g2g/crypto/uint256.hpp"
#include "oracle/oracle.hpp"

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

/// HMAC-SHA256 through the scalar finish, called by name: the route every
/// CPU without SHA-NI runs.
Digest scalar_hmac(BytesView key, BytesView message) {
  const auto [inner, outer] = oracle::hmac_midstates(key);
  return hmac_sha256_finish_scalar(inner, outer, message, 64);
}

// Key lengths around the block size: empty, short, a FastSuite MAC key, one
// short of a block, a block, one over (hashed first), RFC 4231's 131 bytes.
constexpr std::size_t kHmacKeyLengths[] = {0, 1, 32, 63, 64, 65, 131};

// -- SHA-256 ------------------------------------------------------------------

// The production hash and the oracle's (its own padding, the scalar rounds).
const struct {
  const char* name;
  Digest (*hash)(BytesView);
} kSha256Routes[] = {{"production", &sha256}, {"oracle", &oracle::sha256}};

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
  for (const auto& route : kSha256Routes) {
    for (const auto& v : vectors) {
      EXPECT_EQ(hex(route.hash(to_bytes(v.msg))), v.digest) << route.name;
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
    EXPECT_EQ(sha256(data), oracle::sha256(data)) << "length " << n;
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
  for (const auto& route : kSha256Routes) {
    Bytes digests;
    for (std::size_t n = 0; n <= pattern.size(); ++n) {
      const Digest d = route.hash(BytesView(pattern.data(), n));
      digests.insert(digests.end(), d.begin(), d.end());
    }
    EXPECT_EQ(hex(route.hash(digests)),
              "c6e4e8706aad569e79b1296ad67e984c018330dca4cd1bc520b46a1d8c1abb05")
        << route.name;
  }
}

TEST(FastPathDiff, Sha256ChunkedUpdatesMatchOneShot) {
  Rng rng(0xC0FFEE);
  const Bytes data = random_bytes(rng, 3000);
  const Digest oneshot = oracle::sha256(data);
  for (int trial = 0; trial < 20; ++trial) {
    Sha256 ctx;
    std::size_t off = 0;
    while (off < data.size()) {
      const std::size_t chunk = std::min<std::size_t>(1 + rng.next() % 257, data.size() - off);
      ctx.update(BytesView(data.data() + off, chunk));
      // An empty view (null data()) between chunks, usually with bytes
      // buffered: HmacKey::mac(data) feeds exactly this.
      ctx.update(BytesView());
      off += chunk;
    }
    EXPECT_EQ(ctx.finish(), oneshot) << "trial " << trial;
  }
  Sha256 empty;
  empty.update(BytesView());
  EXPECT_EQ(empty.finish(), oracle::sha256(Bytes{}));
}

TEST(FastPathDiff, ShaNiCompressionMatchesScalarRounds) {
  if (!sha_ni_available()) GTEST_SKIP() << "this CPU has no SHA-NI; SHA-256 runs the scalar rounds";
  // Random chaining values, 0 to 9 blocks: the hardware loop from its first
  // block to its last, against the scalar rounds called by name.
  Rng rng(0x5ca1a2);
  for (int i = 0; i < 200; ++i) {
    Sha256State state{};
    for (auto& word : state) word = static_cast<std::uint32_t>(rng.next());
    const std::size_t blocks = static_cast<std::size_t>(i % 10);
    const Bytes data = random_bytes(rng, 64 * blocks);
    Sha256State hardware = state;
    Sha256State scalar = state;
    sha256_compress(hardware, data.data(), blocks);
    sha256_compress_scalar(scalar, data.data(), blocks);
    EXPECT_EQ(hardware, scalar) << "case " << i << ", " << blocks << " blocks";
  }
}

TEST(FastPathDiff, ShaNiHmacFinishMatchesScalarFinish) {
  if (!sha_ni_available()) GTEST_SKIP() << "this CPU has no SHA-NI; HMAC runs the scalar finish";
  // Random midstates, every message length 0..200 (one or two padding
  // blocks, up to three whole blocks in place) and absorbed counts of one to
  // three blocks, as HmacKey::mac(a, b) passes them.
  Rng rng(0xF1A1);
  const Bytes message = random_bytes(rng, 200);
  for (std::size_t n = 0; n <= message.size(); ++n) {
    Sha256State inner{};
    Sha256State outer{};
    for (auto& word : inner) word = static_cast<std::uint32_t>(rng.next());
    for (auto& word : outer) word = static_cast<std::uint32_t>(rng.next());
    const std::uint64_t absorbed = 64 * (1 + n % 3);
    const BytesView m(message.data(), n);
    EXPECT_EQ(hmac_sha256_finish(inner, outer, m, absorbed),
              hmac_sha256_finish_scalar(inner, outer, m, absorbed))
        << "length " << n;
  }
}

// -- HMAC and the heavy HMAC chain --------------------------------------------

TEST(FastPathDiff, HmacRfc4231GoldenVectorHoldsOnBothPaths) {
  // Production, the scalar finish by name, and the oracle.
  const Bytes key(20, 0x0b);
  const Bytes data = to_bytes("Hi There");
  const char* golden = "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7";
  EXPECT_EQ(hex(hmac_sha256(key, data)), golden);
  EXPECT_EQ(hex(HmacKey(key).mac(data)), golden);
  EXPECT_EQ(hex(scalar_hmac(key, data)), golden);
  EXPECT_EQ(hex(oracle::hmac_sha256(key, data)), golden);
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
    EXPECT_EQ(hk.mac(a), oracle::hmac_sha256(key, a));
    Bytes ab = a;
    ab.insert(ab.end(), b.begin(), b.end());
    EXPECT_EQ(hk.mac(a, b), hmac_sha256(key, ab));
    EXPECT_EQ(hk.mac(a, b), oracle::hmac_sha256(key, ab));
  }
}

TEST(FastPathDiff, HmacKeyMatchesRfc2104AtEveryLength) {
  // Every message length 0..300: zero to four whole blocks in place, then a
  // tail that pads to one block (0..55 bytes) or two (56..63). Production and
  // the scalar finish against the oracle.
  Rng rng(0x2104);
  const Bytes message = random_bytes(rng, 300);
  for (const std::size_t key_len : kHmacKeyLengths) {
    const Bytes key = random_bytes(rng, key_len);
    const HmacKey hk(key);
    for (std::size_t n = 0; n <= message.size(); ++n) {
      const BytesView m(message.data(), n);
      const Digest expect = oracle::hmac_sha256(key, m);
      EXPECT_EQ(hk.mac(m), expect) << "key " << key_len << ", length " << n;
      EXPECT_EQ(scalar_hmac(key, m), expect) << "scalar, key " << key_len << ", length " << n;
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
    const HmacKey hk(key);
    for (std::size_t n = 0; n <= message.size(); ++n) {
      const Digest expect = oracle::hmac_sha256(key, BytesView(message.data(), n));
      for (std::size_t split = 0; split <= n; ++split) {
        Bytes a(message.begin(), message.begin() + static_cast<std::ptrdiff_t>(split));
        a.insert(a.end(), guard.begin(), guard.end());
        Bytes b = guard;
        b.insert(b.end(), message.begin() + static_cast<std::ptrdiff_t>(split),
                 message.begin() + static_cast<std::ptrdiff_t>(n));
        EXPECT_EQ(hk.mac(BytesView(a).first(split), BytesView(b).subspan(guard.size())), expect)
            << "key " << key_len << ", length " << n << ", split " << split;
      }
    }
  }
}

TEST(FastPathDiff, HeavyHmacMatchesReference) {
  Rng rng(0x11EA);
  for (const std::uint32_t iterations : {0u, 1u, 2u, 3u, 64u, 257u, 1024u}) {
    const Bytes msg = random_bytes(rng, 1 + rng.next() % 700);
    const Bytes seed = random_bytes(rng, 1 + rng.next() % 48);
    EXPECT_EQ(heavy_hmac(msg, seed, iterations),
              oracle::heavy_hmac_reference(msg, seed, iterations))
        << iterations;
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
  for (const auto& c : cases) {
    const bool reference =
        oracle::heavy_hmac_reference(c.msg_a, seed, 9) ==
        oracle::heavy_hmac_reference(c.msg_b, c.seed_b, c.iterations_b);
    const bool verdict = heavy_hmac_equal(c.msg_a, seed, 9, c.msg_b, c.seed_b, c.iterations_b);
    EXPECT_EQ(verdict, reference) << c.name;
    EXPECT_EQ(verdict, c.expect) << c.name;
  }
}

// -- Schnorr: fixed-base tables and the engine --------------------------------

// Honest and tampered inputs: the engine's verdict must equal the oracle's
// schoolbook one, and the expected one.
void expect_verdicts_match_oracle(const SchnorrEngine& engine, const SchnorrKeyPair& kp,
                                  const U256& other_key, const Bytes& msg,
                                  const SchnorrSignatureRS& rs, const std::string& where) {
  const SchnorrGroup& group = engine.group();
  Bytes flipped = msg;
  flipped[0] ^= 1;
  bool carry = false;
  const U256 one(1);
  const struct {
    const char* name;
    const U256& key;
    const Bytes& message;
    SchnorrSignatureRS rs;
    bool expect;
  } cases[] = {
      {"honest", kp.public_key, msg, rs, true},
      {"s + 1", kp.public_key, msg, {rs.r, add(rs.s, one, carry)}, false},
      {"changed R", kp.public_key, msg, {add(rs.r, one, carry), rs.s}, false},
      {"flipped message byte", kp.public_key, flipped, rs, false},
      {"another signer's key", other_key, msg, rs, false},
      {"s = 0", kp.public_key, msg, {rs.r, U256{}}, false},
      {"R = 1, s = 0", kp.public_key, msg, {one, U256{}}, false},
  };
  for (const auto& c : cases) {
    const bool rs_verdict = engine.verify_rs(engine.prepare(c.key), c.message, c.rs);
    EXPECT_EQ(rs_verdict, oracle::schnorr_rs_verify(group, c.key, c.message, c.rs))
        << c.name << ", " << where;
    EXPECT_EQ(rs_verdict, c.expect) << c.name << ", " << where;
  }
}

TEST(FastPathDiff, SchnorrEngineMatchesFreeFunctions) {
  // The engine against the oracle's schoolbook free functions.
  const Bytes msg = to_bytes("proof of relay, hop 3");
  for (const SchnorrGroup* group : {&SchnorrGroup::small_group(), &SchnorrGroup::default_group()}) {
    const SchnorrEngine engine(*group);
    const std::string where = "p=" + group->p.to_hex();
    // Identical RNG draws => identical keys and signatures, bit for bit.
    Rng rng_a(42);
    Rng rng_b(42);
    const SchnorrKeyPair kp = engine.keygen(rng_a);
    const SchnorrKeyPair kp_oracle = oracle::schnorr_keygen(*group, rng_b);
    EXPECT_EQ(kp.secret, kp_oracle.secret) << where;
    EXPECT_EQ(kp.public_key, kp_oracle.public_key) << where;
    const SchnorrKeyPair other = engine.keygen(rng_a);
    EXPECT_EQ(other.public_key, oracle::schnorr_keygen(*group, rng_b).public_key) << where;

    const SchnorrSignatureRS rs = engine.sign_rs(kp.secret, msg, rng_a);
    const SchnorrSignatureRS rs_oracle = oracle::schnorr_rs_sign(*group, kp.secret, msg, rng_b);
    EXPECT_EQ(rs.r, rs_oracle.r) << where;
    EXPECT_EQ(rs.s, rs_oracle.s) << where;

    expect_verdicts_match_oracle(engine, kp, other.public_key, msg, rs, where);
    EXPECT_EQ(engine.shared_secret(kp.secret, other.public_key),
              oracle::dh_shared_secret(*group, kp.secret, other.public_key))
        << where;

    // y^e as DH toward a prepared public key: through y's table inside q's
    // bit length, through mont_pow past it. Nothing range-checks y, so keys
    // at and past p must reduce like pow_mod does.
    const SuitePtr suite = make_schnorr_rs_suite(*group);
    const U256 one(1);
    bool borrow = false;
    const U256 q_minus_1 = sub(group->q, one, borrow);
    const U256 all_ones = U256::from_hex(
        "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
    U256 past_q;  // 2^bits(q), the shortest exponent longer than q
    past_q.limb[group->q.bit_length() / 64] = 1ULL << (group->q.bit_length() % 64);
    for (const U256& y : {U256(0), one, sub(group->p, one, borrow), group->p, all_ones}) {
      const PublicKeyPtr key = suite->prepare_public_key(y.to_bytes_be());
      for (const U256& e :
           {U256(0), one, q_minus_1, random_below(rng_a, group->q), past_q, all_ones}) {
        EXPECT_EQ(key->shared_secret(e.to_bytes_be()), pow_mod(y, e, group->p).to_bytes_be())
            << y.to_hex() << "^" << e.to_hex() << ", " << where;
      }
    }
  }
}

TEST(FastPathDiff, EngineVerifyMatchesFreeFunctionsWhenQBitsAreNotAMultipleOf8) {
  // Verification walks two 4-bit windows of y per 8-bit window of g. At 97
  // and 100 bits y has one window fewer than twice g's, so the last step has
  // no odd y window; verdicts must still be the oracle's, valid and
  // tampered.
  const Bytes base_msg = to_bytes("proof of relay, hop 3");
  for (const std::size_t q_bits : {std::size_t{97}, std::size_t{100}}) {
    const SchnorrGroup group = SchnorrGroup::generate(128, q_bits, 0x6732 + q_bits);
    ASSERT_EQ(group.q.bit_length(), q_bits);
    const SchnorrEngine engine(group);
    const std::string where = "q bits " + std::to_string(q_bits);
    Rng rng(q_bits);
    const SchnorrKeyPair kp = engine.keygen(rng);
    const SchnorrKeyPair other = engine.keygen(rng);
    std::size_t top_window_digits = 0;  // e or s reaching y's last window
    for (std::uint8_t i = 0; i < 16; ++i) {
      Bytes msg = base_msg;
      msg.push_back(i);
      const SchnorrSignatureRS rs = engine.sign_rs(kp.secret, msg, rng);
      // s walks g's table; e, recomputed from R, walks y's.
      const U256 e = oracle::schnorr_challenge(group, rs.r, msg);
      for (const U256& v : {e, rs.s}) {
        if (v.bit_length() > (q_bits - 1) / 4 * 4) ++top_window_digits;
      }
      expect_verdicts_match_oracle(engine, kp, other.public_key, msg, rs, where);
    }
    EXPECT_GT(top_window_digits, 0u) << where;
  }
}

TEST(FastPathDiff, SchnorrEngineRejectsAnEvenModulus) {
  // Montgomery reduction needs odd p and q; every generated group has them.
  SchnorrGroup even = SchnorrGroup::small_group();
  bool carry = false;
  even.p = add(even.p, U256(1), carry);
  EXPECT_THROW(SchnorrEngine{even}, std::invalid_argument);
  even = SchnorrGroup::small_group();
  even.q = add(even.q, U256(1), carry);
  EXPECT_THROW(SchnorrEngine{even}, std::invalid_argument);
}

// Production suite and oracle suite from the same seed: identical keys and
// signatures, and each verifies the other's.
void expect_suite_matches_oracle(const Suite& suite, const Suite& reference) {
  Rng rng(9);
  Rng rng_oracle(9);
  const Bytes msg = to_bytes("por certificate");
  const KeyPair kp = suite.keygen(rng);
  const KeyPair kp_oracle = reference.keygen(rng_oracle);
  EXPECT_EQ(kp.public_key, kp_oracle.public_key);
  EXPECT_EQ(kp.secret_key, kp_oracle.secret_key);
  const Bytes sig = suite.sign(kp.secret_key, msg);
  const Bytes sig_oracle = reference.sign(kp_oracle.secret_key, msg);
  EXPECT_EQ(sig, sig_oracle);
  EXPECT_TRUE(reference.verify(kp.public_key, msg, sig));
  EXPECT_TRUE(suite.verify(kp_oracle.public_key, msg, sig_oracle));
}

TEST(FastPathDiff, SchnorrRsSuiteSignaturesIdenticalFastOnAndOff) {
  const SchnorrGroup& group = SchnorrGroup::small_group();
  expect_suite_matches_oracle(*make_schnorr_rs_suite(group), *oracle::schnorr_rs_suite(group));
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

// The production moduli, both Schnorr groups' p and q, as constants: the
// generated groups' own Miller–Rabin and generator search run mont_pow, and
// a broken kernel would keep them from ever finishing instead of failing a
// comparison. GroupModuliAreTheGeneratedGroups ties them to the groups.
const U256 kDefaultP =
    U256::from_hex("82f6792f278ee695aac599891065ff5ea583e6eebd705e9dac880e2894a17173");
const U256 kDefaultQ = U256::from_hex("83e805a05c9c4957b2a402232d2979aa334d98e1");
const U256 kSmallP = U256::from_hex("8e51c621a9ad6af8f5e4fa702cc7e86d");
const U256 kSmallQ = U256::from_hex("f3079a0b22359fb4cdb2302f");

// Production moduli, small odd moduli, and limb-boundary patterns (2^64-1 in
// various positions, the 2^256-1 maximum).
std::vector<U256> corpus_moduli() {
  return {
      kDefaultP,
      kDefaultQ,
      kSmallP,
      kSmallQ,
      U256(3),
      U256(0xffffffffffffffffULL),  // 2^64 - 1: all carries in limb 0
      U256::from_hex("ffffffffffffffff0000000000000001"),
      U256::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffff"
                     "ffffffffffffffff"),  // 2^256 - 1: the maximum modulus
  };
}

TEST(MontgomeryDiff, GroupModuliAreTheGeneratedGroups) {
  EXPECT_EQ(SchnorrGroup::default_group().p, kDefaultP);
  EXPECT_EQ(SchnorrGroup::default_group().q, kDefaultQ);
  EXPECT_EQ(SchnorrGroup::small_group().p, kSmallP);
  EXPECT_EQ(SchnorrGroup::small_group().q, kSmallQ);
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
std::vector<U256> kernel_moduli() {
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
        EXPECT_EQ(pow_mod_fast(base, e, m), pow_mod(base, e, m))
            << base.to_hex() << "^" << e.to_hex() << " mod " << m.to_hex();
      }
    }
  }
  // Even modulus: pow_mod_fast must fall back to the classic route
  // (Montgomery requires an odd modulus).
  const U256 even = U256(1000);
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
  for (const U256& m : {kDefaultP, kDefaultQ, kSmallP}) {
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
  // The tables ("on") must reach the schoolbook residues ("off": y^e as
  // pow_mod, a verification's g^s · y^e as mul_mod over two pow_mods),
  // through pow(), through one accumulator shared by an 8-bit and a 4-bit
  // table (left empty when both exponents are zero), and through DH toward
  // the engine's prepared key.
  Rng rng(0x7AB1E2);
  for (const SchnorrGroup* group : {&SchnorrGroup::small_group(), &SchnorrGroup::default_group()}) {
    const MontgomeryParams params = MontgomeryParams::for_modulus(group->p);
    const std::size_t q_bits = group->q.bit_length();
    const SchnorrEngine engine(*group);
    const U256 y = random_below(rng, group->p);
    const FixedBaseTable g_table(group->g, params, q_bits, 8);
    const FixedBaseTable y_table(y, params, q_bits, 4);
    const SchnorrPreparedKey y_key = engine.prepare(y);
    for (int i = 0; i < 10; ++i) {
      // s = e = 0, then s = 0 alone, then e = 0 alone, then both random.
      const U256 s = i <= 1 ? U256{} : random_below(rng, group->q);
      const U256 e = i == 0 || i == 2 ? U256{} : random_below(rng, group->q);
      const U256 g_s = pow_mod(group->g, s, group->p);
      const U256 y_e = pow_mod(y, e, group->p);
      const U256 reference = mul_mod(g_s, y_e, group->p);
      EXPECT_EQ(g_table.pow(s), g_s) << s.to_hex();
      EXPECT_EQ(y_table.pow(e), y_e) << e.to_hex();
      EXPECT_EQ(engine.shared_secret(e, y_key), y_e) << e.to_hex();
      std::optional<U256> acc;
      g_table.mul_into(acc, s);
      y_table.mul_into(acc, e);
      if (s.is_zero() && e.is_zero()) {
        EXPECT_FALSE(acc.has_value());
        EXPECT_EQ(reference, U256(1));
      } else {
        ASSERT_TRUE(acc.has_value());
        EXPECT_EQ(from_mont(*acc, params), reference) << s.to_hex() << ", " << e.to_hex();
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

TEST(FastPathDiff, ExperimentJsonBitIdenticalWithFastSuiteAndOracleSuite) {
  // G2G Delegation with liars on a short Cambridge06 window: FQ_RESP
  // declarations are signed and checked on every attempt, sources ship them
  // as attachments, destinations check those and issue QualityLie PoMs,
  // which other nodes verify, and every message is sealed to its
  // destination's roster key. The production FastSuite does all of it
  // through its prepared keys (each key's HMAC pad states, made once); the
  // oracle suite overrides only the one-shot calls, so its keys are the
  // forwarding defaults, on the scalar rounds and the RFC 2104 HMAC. The
  // serialized experiment must not be able to tell.
  constexpr std::uint64_t kSeed = 0x4732674d41435353ULL;
  core::ExperimentConfig cfg = diff_config();
  cfg.protocol = core::Protocol::G2GDelegationFrequency;
  cfg.scenario = core::cambridge06_scenario();
  cfg.scenario.trace_config.nodes = 16;
  cfg.deviation = proto::Behavior::Liar;
  cfg.suite = make_fast_suite(kSeed);
  core::ExperimentConfig oracle_cfg = cfg;
  oracle_cfg.suite = oracle::fast_suite(kSeed);
  const core::ExperimentResult production = core::run_experiment(cfg);
  EXPECT_EQ(core::to_json(production), core::to_json(core::run_experiment(oracle_cfg)));
  EXPECT_GT(production.counters.value("wire.quality_decl.msgs"), 0u);
  EXPECT_GT(production.counters.value("detect.quality_lies"), 0u);
  EXPECT_GT(production.counters.value("pom.learned"), 0u);
}

TEST(FastPathDiff, ExperimentJsonBitIdenticalWithRsSuiteAndOracleSuite) {
  // The production (R,s) suite verifies through one Montgomery accumulator
  // over the g table and the per-key tables, reduces challenges with
  // mont_reduce and runs DH through mont_pow; the oracle suite through
  // pow_mod, mul_mod and the schoolbook mod, hashing on the scalar rounds.
  // The serialized experiment must not be able to tell.
  const core::ExperimentConfig cfg = rs_config();
  core::ExperimentConfig oracle_cfg = cfg;
  oracle_cfg.suite = oracle::schnorr_rs_suite(SchnorrGroup::small_group());
  EXPECT_EQ(core::to_json(core::run_experiment(cfg)),
            core::to_json(core::run_experiment(oracle_cfg)));
}

}  // namespace
}  // namespace g2g::crypto
