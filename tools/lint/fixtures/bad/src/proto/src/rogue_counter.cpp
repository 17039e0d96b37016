// Fixture: counter hygiene — an ad-hoc atomic tally outside src/obs.
#include <atomic>
#include <cstdint>

namespace fixture {

std::atomic<std::uint64_t> g_relay_tally{0};  // no-adhoc-atomic

void bump() { g_relay_tally.fetch_add(1); }

}  // namespace fixture
