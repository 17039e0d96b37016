// Global crypto fast-path switch.
//
// The fast path never changes any digest, signature, or verdict — every
// accelerated routine is bit-identical to its reference implementation (the
// differential suite in tests/crypto_fastpath_diff_test.cpp enforces this).
// The switch exists so benchmarks can measure the reference path
// (`--no-fastpath`) and so the differential tests can drive both sides of
// each comparison from one process.
//
// Covered by the switch:
//  - SHA-256 compression: SHA-NI hardware rounds vs the scalar FIPS 180-4 loop
//  - the fused HMAC finish (hmac_sha256_finish, behind every HmacKey::mac):
//    one SHA-NI kernel for the inner and the outer hash vs the same steps in
//    scalar rounds; with the switch off, SHA-256 and HMAC run only scalar
//    rounds
//  - heavy_hmac: precomputed-pad-state chain vs heavy_hmac_reference
//  - Schnorr: fixed-base window tables for g and the per-public-key tables
//    for y^e vs square-and-multiply pow_mod
//  - U256 modular arithmetic: Montgomery-form arithmetic (montgomery.hpp —
//    mont window tables, mont_pow's fixed 4-bit window behind pow_mod_fast
//    and DH, the mont_reduce challenge reduction) vs the schoolbook
//    shift-subtract mod in uint256.cpp
//
// NOT covered: which mont_mul kernel runs. The CPU chooses it, once per
// process (adx_available): the MULX/ADCX/ADOX asm kernel where BMI2 and ADX
// exist, the C CIOS kernel elsewhere. mont_mul never reads the switch: the
// callers above read it and, with it off, take the schoolbook route.
// Nor are the suites' per-signer memos (key_memo.hpp). They store values
// the uncached path would compute bit for bit, so there is nothing to switch:
// with the fast path off the Schnorr engine bypasses its key tables, and the
// FastSuite's memoised HMAC midstates are the HMAC itself, not a kernel.
// Nor is heavy_hmac_equal's input-identity verdict (hmac.hpp): it decides the
// digest comparison exactly, and any chain it does run goes through the
// switched heavy_hmac.
#pragma once

namespace g2g::crypto {

/// Turn the process-wide fast path on or off. Thread-safe; takes effect on
/// the next crypto call. Returns the previous value.
bool set_fast_path(bool on);

/// True when accelerated implementations should be used. Defaults to true;
/// the environment variable G2G_FASTPATH=0 disables it at startup.
[[nodiscard]] bool fast_path_enabled();

/// True when this CPU exposes the SHA-NI extensions (detection is cached).
[[nodiscard]] bool sha_ni_available();

/// True when SHA-256 will actually use the hardware rounds right now.
[[nodiscard]] bool sha_accelerated();

/// True when this CPU exposes BMI2 and ADX (MULX, ADCX, ADOX), so mont_mul
/// runs mont_mul_adx (detection is cached; false off x86-64).
[[nodiscard]] bool adx_available();

/// RAII toggle for tests: forces the fast path on/off for a scope.
class FastPathScope {
 public:
  explicit FastPathScope(bool on) : prev_(set_fast_path(on)) {}
  ~FastPathScope() { set_fast_path(prev_); }
  FastPathScope(const FastPathScope&) = delete;
  FastPathScope& operator=(const FastPathScope&) = delete;

 private:
  bool prev_;
};

}  // namespace g2g::crypto
