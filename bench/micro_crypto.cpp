// Micro-benchmarks of the cryptographic substrate (google-benchmark):
// hashing, MACs, the storage-proof heavy HMAC, the (R,s) Schnorr and fast
// signature suites, and the sealed-box message encryption. The shared main()
// (micro_main.hpp) emits BENCH_micro_crypto.json with `--json-out FILE`.
#include <benchmark/benchmark.h>

#include <array>
#include <vector>

#include "g2g/crypto/hmac.hpp"
#include "g2g/crypto/montgomery.hpp"
#include "g2g/crypto/schnorr.hpp"
#include "g2g/crypto/sealed_box.hpp"
#include "g2g/crypto/sha256.hpp"
#include "g2g/crypto/suite.hpp"
#include "micro_main.hpp"

namespace {

using namespace g2g;
using namespace g2g::crypto;

void BM_Sha256(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) benchmark::DoNotOptimize(sha256(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

// The same blocks through the scalar compression, called by name: the
// message's whole blocks, then the one padding block that ends a message of
// whole blocks. The ratio to BM_Sha256 is the SHA-NI win; on a CPU without
// SHA-NI the two rows run the same kernel.
void BM_Sha256Scalar(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  std::array<std::uint8_t, 64> pad{};
  pad[0] = 0x80;
  const std::uint64_t bits = data.size() * 8;
  for (std::size_t i = 0; i < 8; ++i) pad[56 + i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
  for (auto _ : state) {
    Sha256State h = kSha256InitState;
    sha256_compress_scalar(h, data.data(), data.size() / 64);
    sha256_compress_scalar(h, pad.data(), 1);
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256Scalar)->Arg(64)->Arg(1024)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key = to_bytes("session key material");
  const Bytes data(1024, 0x5a);
  for (auto _ : state) benchmark::DoNotOptimize(hmac_sha256(key, data));
}
BENCHMARK(BM_HmacSha256);

// One MAC under a prepared 32-byte key at the sizes the protocol signs: the
// FQ_RESP declaration (49 bytes), the epidemic PoR payload (63) and the
// delegation PoR payload (91).
void BM_HmacKeyMac(benchmark::State& state) {
  const HmacKey key(Bytes(kSha256DigestSize, 0x4b));
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) benchmark::DoNotOptimize(key.mac(data));
}
BENCHMARK(BM_HmacKeyMac)->Arg(49)->Arg(63)->Arg(91);

void BM_HeavyHmac(benchmark::State& state) {
  const Bytes msg(512, 0x11);
  const Bytes seed = to_bytes("challenge-seed");
  const auto iterations = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(heavy_hmac(msg, seed, iterations));
}
BENCHMARK(BM_HeavyHmac)->Arg(256)->Arg(1024)->Arg(4096);

// One Montgomery CIOS product vs one schoolbook shift-subtract mul_mod over
// the default group's 256-bit prime. The ratio is the per-multiply win that
// compounds through every exponentiation chain; the differential corpus
// (crypto_fastpath_diff_test) owns correctness. mont_mul is the
// kernel the CPU selects (the report's config names it); the Portable rows
// time the C kernel, which is what CPUs without BMI2+ADX run.
struct MontOperands {
  MontgomeryParams params = MontgomeryParams::for_modulus(SchnorrGroup::default_group().p);
  U256 a;
  U256 b;
  MontOperands() {
    Rng rng(3);
    a = to_mont(random_below(rng, params.m), params);
    b = to_mont(random_below(rng, params.m), params);
  }
};

// Independent products: the same operands every iteration, so consecutive
// products overlap in the pipeline.
template <U256 (*Kernel)(const U256&, const U256&, const MontgomeryParams&)>
void mont_mul_independent(benchmark::State& state) {
  const MontOperands ops;
  for (auto _ : state) benchmark::DoNotOptimize(Kernel(ops.a, ops.b, ops.params));
}

// A dependent chain, x = x·b, as every exponentiation and window walk runs:
// each product waits for the one before.
template <U256 (*Kernel)(const U256&, const U256&, const MontgomeryParams&)>
void mont_mul_chain(benchmark::State& state) {
  const MontOperands ops;
  U256 x = ops.a;
  for (auto _ : state) {
    x = Kernel(x, ops.b, ops.params);
    benchmark::DoNotOptimize(x);
  }
}

void BM_MontMul(benchmark::State& state) { mont_mul_independent<mont_mul>(state); }
BENCHMARK(BM_MontMul);

void BM_MontMulChain(benchmark::State& state) { mont_mul_chain<mont_mul>(state); }
BENCHMARK(BM_MontMulChain);

void BM_MontMulPortable(benchmark::State& state) {
  mont_mul_independent<mont_mul_portable>(state);
}
BENCHMARK(BM_MontMulPortable);

void BM_MontMulPortableChain(benchmark::State& state) {
  mont_mul_chain<mont_mul_portable>(state);
}
BENCHMARK(BM_MontMulPortableChain);

void BM_MulModClassic(benchmark::State& state) {
  const SchnorrGroup& group = SchnorrGroup::default_group();
  Rng rng(3);
  const U256 a = random_below(rng, group.p);
  const U256 b = random_below(rng, group.p);
  for (auto _ : state) benchmark::DoNotOptimize(mul_mod(a, b, group.p));
}
BENCHMARK(BM_MulModClassic);

// The sign and verify rows time the calls the protocol makes: through keys
// prepared once, as a NodeIdentity and the roster hold them.
void BM_SchnorrRsSign(benchmark::State& state) {
  const SuitePtr suite = make_schnorr_rs_suite(SchnorrGroup::default_group());
  Rng rng(1);
  const KeyPair kp = suite->keygen(rng);
  const SigningKeyPtr signer = suite->prepare_signing_key(kp.secret_key);
  const Bytes msg = to_bytes("proof of relay payload");
  for (auto _ : state) benchmark::DoNotOptimize(signer->sign(msg));
}
BENCHMARK(BM_SchnorrRsSign);

void BM_SchnorrRsVerify(benchmark::State& state) {
  const SuitePtr suite = make_schnorr_rs_suite(SchnorrGroup::default_group());
  Rng rng(2);
  const KeyPair kp = suite->keygen(rng);
  const PublicKeyPtr key = suite->prepare_public_key(kp.public_key);
  const Bytes msg = to_bytes("proof of relay payload");
  const Signature sig = suite->prepare_signing_key(kp.secret_key)->sign(msg);
  for (auto _ : state) benchmark::DoNotOptimize(key->verify(msg, sig.view()));
}
BENCHMARK(BM_SchnorrRsVerify);

// A key's first verification: prepare it (build the signer's window table),
// then verify once. The difference to BM_SchnorrRsVerify is the per-signer
// build cost, which a roster pays once per key and run.
void BM_SchnorrRsVerifyFreshKey(benchmark::State& state) {
  const SuitePtr suite = make_schnorr_rs_suite(SchnorrGroup::default_group());
  Rng rng(8);
  const KeyPair kp = suite->keygen(rng);
  const Bytes msg = to_bytes("proof of relay payload");
  const Signature sig = suite->prepare_signing_key(kp.secret_key)->sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(suite->prepare_public_key(kp.public_key)->verify(msg, sig.view()));
  }
}
BENCHMARK(BM_SchnorrRsVerifyFreshKey);

void BM_FastSuiteSign(benchmark::State& state) {
  const SuitePtr suite = make_fast_suite();
  Rng rng(3);
  const KeyPair kp = suite->keygen(rng);
  const SigningKeyPtr signer = suite->prepare_signing_key(kp.secret_key);
  const Bytes msg = to_bytes("proof of relay payload");
  for (auto _ : state) benchmark::DoNotOptimize(signer->sign(msg));
}
BENCHMARK(BM_FastSuiteSign);

void BM_FastSuiteVerify(benchmark::State& state) {
  const SuitePtr suite = make_fast_suite();
  Rng rng(4);
  const KeyPair kp = suite->keygen(rng);
  const PublicKeyPtr key = suite->prepare_public_key(kp.public_key);
  const Bytes msg = to_bytes("proof of relay payload");
  const Signature sig = suite->prepare_signing_key(kp.secret_key)->sign(msg);
  for (auto _ : state) benchmark::DoNotOptimize(key->verify(msg, sig.view()));
}
BENCHMARK(BM_FastSuiteVerify);

void BM_SealedBoxRoundTrip(benchmark::State& state) {
  const SuitePtr suite = make_fast_suite();
  Rng rng(5);
  const KeyPair recipient = suite->keygen(rng);
  const PublicKeyPtr recipient_key = suite->prepare_public_key(recipient.public_key);
  const Bytes body(static_cast<std::size_t>(state.range(0)), 0x42);
  for (auto _ : state) {
    const SealedBox box = seal(*suite, rng, *recipient_key, body);
    benchmark::DoNotOptimize(seal_open(*suite, recipient.secret_key, box));
  }
}
BENCHMARK(BM_SealedBoxRoundTrip)->Arg(64)->Arg(1024);

// The static DH of every Schnorr session key, as the suites run it: one
// engine per group, its Montgomery parameters built once.
void BM_DhSharedSecret(benchmark::State& state) {
  const SchnorrEngine engine(SchnorrGroup::default_group());
  Rng rng(6);
  const SchnorrKeyPair a = engine.keygen(rng);
  const SchnorrKeyPair b = engine.keygen(rng);
  for (auto _ : state) benchmark::DoNotOptimize(engine.shared_secret(a.secret, b.public_key));
}
BENCHMARK(BM_DhSharedSecret);

}  // namespace

int main(int argc, char** argv) { return g2g::bench::micro_main(argc, argv, "micro_crypto"); }
