#include "g2g/crypto/fastpath.hpp"

namespace g2g::crypto {

namespace {

bool detect_sha_ni() {
#if defined(__x86_64__) && defined(__GNUC__)
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

bool detect_adx() {
#if defined(__x86_64__) && defined(__GNUC__)
  return __builtin_cpu_supports("bmi2") && __builtin_cpu_supports("adx");
#else
  return false;
#endif
}

}  // namespace

bool sha_ni_available() {
  static const bool available = detect_sha_ni();
  return available;
}

bool adx_available() {
  static const bool available = detect_adx();
  return available;
}

}  // namespace g2g::crypto
