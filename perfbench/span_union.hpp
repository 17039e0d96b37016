// Host-time interval arithmetic for the per-layer split.
//
// A layer's busy time is the length of the union of its spans, not their sum:
// spans of one layer may overlap. A storage-proof audit_round stays open until
// its contact's HeavyHmacBatch resolves, so every such round of one contact
// covers the same batch run.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace perfbench {

struct Interval {
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
};

/// Length of the union of `spans`, in nanoseconds. Empty and inverted
/// intervals contribute nothing.
[[nodiscard]] inline std::int64_t union_ns(std::vector<Interval> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const Interval& x, const Interval& y) { return x.begin_ns < y.begin_ns; });
  std::int64_t total = 0;
  bool open = false;
  Interval run;
  for (const Interval& s : spans) {
    if (s.end_ns <= s.begin_ns) continue;
    if (open && s.begin_ns <= run.end_ns) {
      run.end_ns = std::max(run.end_ns, s.end_ns);
      continue;
    }
    if (open) total += run.end_ns - run.begin_ns;
    run = s;
    open = true;
  }
  if (open) total += run.end_ns - run.begin_ns;
  return total;
}

}  // namespace perfbench
