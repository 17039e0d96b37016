// Fixture: a clean tree — justified pragmas silence real uses, and the
// deterministic alternatives pass without any pragma.
#include <atomic>
#include <cstdlib>
#include <map>
#include <string>

namespace fixture {

// g2g-lint: allow(no-getenv) -- process-level feature toggle read once at
// startup; never consulted during a run, so replays are unaffected.
const char* feature_toggle() { return std::getenv("FIXTURE_TOGGLE"); }

// g2g-lint: allow(no-adhoc-atomic) -- work-distribution cursor, not a
// protocol counter; results are reduced in index order regardless.
std::atomic<int> g_cursor{0};

void iterate() {
  std::map<std::string, int> ordered;  // ordered container: iteration is fine
  for (const auto& kv : ordered) (void)kv;
}

}  // namespace fixture
