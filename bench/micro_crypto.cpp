// Micro-benchmarks of the cryptographic substrate (google-benchmark):
// hashing, MACs, the storage-proof heavy HMAC, both signature suites, and
// the sealed-box message encryption. Owns its main() so `--json-out FILE`
// can emit BENCH_micro_crypto.json alongside the console table.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_json.hpp"
#include "g2g/crypto/fastpath.hpp"
#include "g2g/crypto/hmac.hpp"
#include "g2g/crypto/key_memo.hpp"
#include "g2g/crypto/montgomery.hpp"
#include "g2g/crypto/schnorr.hpp"
#include "g2g/crypto/sealed_box.hpp"
#include "g2g/crypto/sha256.hpp"
#include "g2g/crypto/suite.hpp"

namespace {

using namespace g2g;
using namespace g2g::crypto;

void BM_Sha256(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) benchmark::DoNotOptimize(sha256(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

// Same workload with the hardware fast path disabled: the portable scalar
// compression function. The ratio to BM_Sha256 is the SHA-NI win.
void BM_Sha256Scalar(benchmark::State& state) {
  const FastPathScope scope(false);
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) benchmark::DoNotOptimize(sha256(data));
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

// The literal seed implementation (fresh Writer-based HMAC per chain link),
// kept as the differential-test reference. The ratio to BM_HeavyHmac is the
// storage-proof fast-path win (pad-state reuse + one-shot finalization).
void BM_HeavyHmacReference(benchmark::State& state) {
  const Bytes msg(512, 0x11);
  const Bytes seed = to_bytes("challenge-seed");
  const auto iterations = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(heavy_hmac_reference(msg, seed, iterations));
}
BENCHMARK(BM_HeavyHmacReference)->Arg(256)->Arg(1024)->Arg(4096);

// One Montgomery CIOS product vs one schoolbook shift-subtract mul_mod over
// the default group's 256-bit prime. The ratio is the per-multiply fast-path
// win that compounds through every exponentiation chain; the differential
// corpus (crypto_fastpath_diff_test) owns correctness. mont_mul is the
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

void BM_SchnorrSign(benchmark::State& state) {
  const SuitePtr suite = make_schnorr_suite(SchnorrGroup::default_group());
  Rng rng(1);
  const KeyPair kp = suite->keygen(rng);
  const Bytes msg = to_bytes("proof of relay payload");
  for (auto _ : state) benchmark::DoNotOptimize(suite->sign(kp.secret_key, msg));
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  const SuitePtr suite = make_schnorr_suite(SchnorrGroup::default_group());
  Rng rng(2);
  const KeyPair kp = suite->keygen(rng);
  const Bytes msg = to_bytes("proof of relay payload");
  const Bytes sig = suite->sign(kp.secret_key, msg);
  for (auto _ : state) benchmark::DoNotOptimize(suite->verify(kp.public_key, msg, sig));
}
BENCHMARK(BM_SchnorrVerify);

// Square-and-multiply g^x (no fixed-base table). The ratio to
// BM_SchnorrVerify is the precomputed-table win on the g^s half.
void BM_SchnorrVerifyNoTable(benchmark::State& state) {
  const FastPathScope scope(false);
  const SuitePtr suite = make_schnorr_suite(SchnorrGroup::default_group());
  Rng rng(2);
  const KeyPair kp = suite->keygen(rng);
  const Bytes msg = to_bytes("proof of relay payload");
  const Bytes sig = suite->sign(kp.secret_key, msg);
  for (auto _ : state) benchmark::DoNotOptimize(suite->verify(kp.public_key, msg, sig));
}
BENCHMARK(BM_SchnorrVerifyNoTable);

void BM_SchnorrRsSign(benchmark::State& state) {
  const SuitePtr suite = make_schnorr_rs_suite(SchnorrGroup::default_group());
  Rng rng(1);
  const KeyPair kp = suite->keygen(rng);
  const Bytes msg = to_bytes("proof of relay payload");
  for (auto _ : state) benchmark::DoNotOptimize(suite->sign(kp.secret_key, msg));
}
BENCHMARK(BM_SchnorrRsSign);

void BM_SchnorrRsVerify(benchmark::State& state) {
  const SuitePtr suite = make_schnorr_rs_suite(SchnorrGroup::default_group());
  Rng rng(2);
  const KeyPair kp = suite->keygen(rng);
  const Bytes msg = to_bytes("proof of relay payload");
  const Bytes sig = suite->sign(kp.secret_key, msg);
  for (auto _ : state) benchmark::DoNotOptimize(suite->verify(kp.public_key, msg, sig));
}
BENCHMARK(BM_SchnorrRsVerify);

// First verification under a key the suite has never seen: the signer's
// window table is built, then used once. Cycling through twice the memo
// bound makes every iteration a miss, so the difference to BM_SchnorrRsVerify
// (warm table) is the per-signer build cost.
void BM_SchnorrRsVerifyFreshKey(benchmark::State& state) {
  const SuitePtr suite = make_schnorr_rs_suite(SchnorrGroup::default_group());
  Rng rng(8);
  const std::size_t n = 2 * KeyMemo<FixedBaseTable>::kMaxKeys;
  std::vector<KeyPair> keys;
  std::vector<Bytes> sigs;
  const Bytes msg = to_bytes("proof of relay payload");
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(suite->keygen(rng));
    sigs.push_back(suite->sign(keys[i].secret_key, msg));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(suite->verify(keys[i].public_key, msg, sigs[i]));
    i = (i + 1) % n;
  }
}
BENCHMARK(BM_SchnorrRsVerifyFreshKey);

void BM_FastSuiteSign(benchmark::State& state) {
  const SuitePtr suite = make_fast_suite();
  Rng rng(3);
  const KeyPair kp = suite->keygen(rng);
  const Bytes msg = to_bytes("proof of relay payload");
  for (auto _ : state) benchmark::DoNotOptimize(suite->sign(kp.secret_key, msg));
}
BENCHMARK(BM_FastSuiteSign);

void BM_FastSuiteVerify(benchmark::State& state) {
  const SuitePtr suite = make_fast_suite();
  Rng rng(4);
  const KeyPair kp = suite->keygen(rng);
  const Bytes msg = to_bytes("proof of relay payload");
  const Bytes sig = suite->sign(kp.secret_key, msg);
  for (auto _ : state) benchmark::DoNotOptimize(suite->verify(kp.public_key, msg, sig));
}
BENCHMARK(BM_FastSuiteVerify);

void BM_SealedBoxRoundTrip(benchmark::State& state) {
  const SuitePtr suite = make_fast_suite();
  Rng rng(5);
  const KeyPair recipient = suite->keygen(rng);
  const Bytes body(static_cast<std::size_t>(state.range(0)), 0x42);
  for (auto _ : state) {
    const SealedBox box = seal(*suite, rng, recipient.public_key, body);
    benchmark::DoNotOptimize(seal_open(*suite, recipient.secret_key, box));
  }
}
BENCHMARK(BM_SealedBoxRoundTrip)->Arg(64)->Arg(1024);

void BM_DhSharedSecret(benchmark::State& state) {
  const SchnorrGroup& group = SchnorrGroup::default_group();
  Rng rng(6);
  const SchnorrKeyPair a = schnorr_keygen(group, rng);
  const SchnorrKeyPair b = schnorr_keygen(group, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dh_shared_secret(group, a.secret, b.public_key));
  }
}
BENCHMARK(BM_DhSharedSecret);

/// Console output plus one telemetry cell per benchmark: wall_s is the total
/// measured real time, sim_events the iteration count, so events_per_s is
/// iterations per second — raw Run fields only, stable across
/// google-benchmark versions.
class CellCollector final : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      g2g::bench::BenchCell cell;
      cell.name = run.benchmark_name();
      cell.runs = 1;
      cell.wall_s = run.real_accumulated_time;
      cell.sim_events = static_cast<std::uint64_t>(run.iterations);
      cells.push_back(std::move(cell));
    }
    ConsoleReporter::ReportRuns(report);
  }

  std::vector<g2g::bench::BenchCell> cells;
};

}  // namespace

int main(int argc, char** argv) {
  // Strip --json-out before google-benchmark parses the argv; probe the path
  // up front so a bad sink fails before any benchmark runs.
  std::string json_out;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json-out" && i + 1 < argc) {
      json_out = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  if (!json_out.empty()) {
    std::FILE* probe = std::fopen(json_out.c_str(), "w");
    if (probe == nullptr) {
      std::fprintf(stderr, "error: cannot open %s for writing (--json-out)\n",
                   json_out.c_str());
      return 1;
    }
    std::fclose(probe);
  }

  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) return 1;

  CellCollector reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json_out.empty()) {
    g2g::bench::BenchReport report;
    report.bench = "micro_crypto";
    report.config = g2g::bench::crypto_kernels();
    report.cells = std::move(reporter.cells);
    if (!report.write(json_out)) return 1;
  }
  return 0;
}
