// Named protocol counters and fixed-bucket histograms.
//
// A Counter is a monotonic uint64; a Histogram counts observations into
// fixed upper-bound buckets (plus an overflow bucket). Both are plain value
// types: incrementing is one add with no indirection — the Registry hands
// out stable pointers once at setup (std::map nodes never move), so the hot
// path never pays a name lookup. The Registry is copyable, which is how an
// end-of-run snapshot lands in core::ExperimentResult.
//
// Like the tracer, a Registry belongs to one single-threaded simulation run.
//
// Every counter and histogram name starts with a registered area
// (kCounterAreas); CounterName checks that at compile time, so a name in an
// unregistered area does not build.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace g2g::obs {

/// The counter namespace of docs/OBSERVABILITY.md. A new area is added here
/// deliberately, in the same commit that documents it.
inline constexpr auto kCounterAreas = std::to_array<std::string_view>({
    "buffer.", "detect.", "g2g.", "hs.", "msg.", "pom.", "session.", "wire.",
});

/// Reached only when a CounterName literal has no registered area; being
/// non-constexpr, the call makes that literal a compile error.
inline void counter_name_area_is_not_registered() {}

/// A counter or histogram name whose area is in kCounterAreas. The consteval
/// constructor runs at compile time, so only a checked literal converts; the
/// conversion is implicit, so a call site passes the literal itself.
class CounterName {
 public:
  consteval CounterName(const char* name) : name_(name) {
    bool registered = false;
    for (const std::string_view area : kCounterAreas) {
      registered = registered || std::string_view(name).starts_with(area);
    }
    if (!registered) counter_name_area_is_not_registered();
  }

  [[nodiscard]] constexpr const char* c_str() const { return name_; }

 private:
  const char* name_;
};

class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Histogram {
 public:
  Histogram() = default;
  /// `edges` are inclusive upper bounds, strictly ascending; bucket i counts
  /// observations v with edges[i-1] < v <= edges[i]. One extra overflow
  /// bucket counts v > edges.back().
  explicit Histogram(std::vector<double> edges);

  void observe(double v);

  [[nodiscard]] const std::vector<double>& edges() const { return edges_; }
  /// edges().size() + 1 entries; the last one is the overflow bucket.
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const { return buckets_; }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

 private:
  std::vector<double> edges_;
  std::vector<std::uint64_t> buckets_{0};  // overflow-only until configured
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

class Registry {
 public:
  /// Get or create; the returned reference stays valid for the registry's
  /// lifetime (and is invalidated by copying only on the copy's side).
  [[nodiscard]] Counter& counter(CounterName name);
  /// Get or create; `edges` is used only on first creation.
  [[nodiscard]] Histogram& histogram(CounterName name, std::vector<double> edges);

  /// Counter value by name, 0 if the counter was never created.
  [[nodiscard]] std::uint64_t value(const std::string& name) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;

  /// Name-sorted iteration for deterministic reporting.
  [[nodiscard]] const std::map<std::string, Counter>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace g2g::obs
