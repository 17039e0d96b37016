// Cached CPU checks behind the crypto kernels' dispatch.
//
// Each hardware kernel has one portable twin that computes the same words:
//  - SHA-256 compression and the fused HMAC finish (sha256.hpp) run the
//    SHA-NI rounds where sha_ni_available(), the scalar FIPS 180-4 rounds
//    (sha256_compress_scalar, hmac_sha256_finish_scalar) elsewhere;
//  - mont_mul (montgomery.hpp) runs the MULX/ADCX/ADOX asm kernel where
//    adx_available(), the C CIOS kernel (mont_mul_portable) elsewhere.
// The choice is made once per process from CPUID and never changes a digest,
// a residue or a verdict. Nothing else in the crypto layer branches on the
// CPU: every routine above the kernels has one production body. The
// reference code they are pinned to lives in the test-only oracle
// (tests/oracle/, docs/TESTING.md), which tests call directly.
#pragma once

namespace g2g::crypto {

/// True when this CPU exposes the SHA-NI extensions, so SHA-256 and the HMAC
/// finish run the hardware rounds (detection is cached; false off x86-64).
[[nodiscard]] bool sha_ni_available();

/// True when this CPU exposes BMI2 and ADX (MULX, ADCX, ADOX), so mont_mul
/// runs mont_mul_adx (detection is cached; false off x86-64).
[[nodiscard]] bool adx_available();

}  // namespace g2g::crypto
