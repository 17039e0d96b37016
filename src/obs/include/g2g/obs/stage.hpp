// Wall-clock profiling of experiment pipeline stages.
//
// A StageProfile is an ordered list of (name, seconds) entries; a StageTimer
// measures one scope with std::chrono::steady_clock and records itself on
// destruction. Stage times are the only non-deterministic quantities the obs
// layer produces — they measure the host machine, not the simulation.
//
// The stage names are StageKind's table: StageTimer and add() take the enum,
// so a name outside the table does not compile.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

namespace g2g::obs {

/// The pipeline stages of core::run_experiment, in run order.
enum class StageKind : std::uint8_t { TraceGen, Communities, WarmUp, Simulation, Extraction };

/// The reported name of a stage ("trace_gen", "communities", ...).
[[nodiscard]] constexpr const char* to_string(StageKind kind) {
  constexpr const char* kNames[] = {"trace_gen", "communities", "warm_up", "simulation",
                                    "extraction"};
  static_assert(std::size(kNames) == static_cast<std::size_t>(StageKind::Extraction) + 1);
  return kNames[static_cast<std::size_t>(kind)];
}

class StageProfile {
 public:
  struct Stage {
    const char* name = nullptr;  ///< to_string(StageKind)
    double seconds = 0.0;
  };

  void add(StageKind kind, double seconds) { stages_.push_back({to_string(kind), seconds}); }

  [[nodiscard]] const std::vector<Stage>& stages() const { return stages_; }
  [[nodiscard]] bool empty() const { return stages_.empty(); }
  /// Seconds recorded under `name` (summed if recorded more than once).
  [[nodiscard]] double seconds(const std::string& name) const;
  [[nodiscard]] double total() const;

 private:
  std::vector<Stage> stages_;
};

/// RAII scope timer; records into the profile when destroyed (or on stop()).
class StageTimer {
 public:
  StageTimer(StageProfile& profile, StageKind kind)
      : profile_(&profile), kind_(kind), start_(std::chrono::steady_clock::now()) {}

  ~StageTimer() { stop(); }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  /// Record now instead of at scope exit; idempotent.
  void stop() {
    if (profile_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    profile_->add(kind_, std::chrono::duration<double>(elapsed).count());
    profile_ = nullptr;
  }

 private:
  StageProfile* profile_;
  StageKind kind_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace g2g::obs
