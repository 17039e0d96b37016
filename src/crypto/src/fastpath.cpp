#include "g2g/crypto/fastpath.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace g2g::crypto {

namespace {

bool initial_fast_path() {
  // g2g-lint: allow(no-getenv) -- process-level kill switch read once at
  // startup (docs/TESTING.md); the fast path is bit-exact either way, so the
  // toggle can never change experiment output.
  const char* env = std::getenv("G2G_FASTPATH");
  if (env != nullptr && (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0)) {
    return false;
  }
  return true;
}

// g2g-lint: allow(no-adhoc-atomic) -- global feature flag, not a counter;
// fastpath.* statistics go through obs::Registry as usual.
std::atomic<bool>& fast_path_flag() {
  // g2g-lint: allow(no-adhoc-atomic) -- same flag (definition line).
  static std::atomic<bool> flag{initial_fast_path()};
  return flag;
}

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

bool set_fast_path(bool on) { return fast_path_flag().exchange(on, std::memory_order_relaxed); }

bool fast_path_enabled() { return fast_path_flag().load(std::memory_order_relaxed); }

bool sha_ni_available() {
  static const bool available = detect_sha_ni();
  return available;
}

bool sha_accelerated() { return sha_ni_available() && fast_path_enabled(); }

bool adx_available() {
  static const bool available = detect_adx();
  return available;
}

}  // namespace g2g::crypto
