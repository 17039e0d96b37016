// Discrete-event simulation core.
//
// A Simulator is a deterministic time-ordered callback queue: events
// scheduled at equal timestamps fire in scheduling order. The protocol
// network schedules one callback per contact of its trace (with the
// contact's duration) through at().
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "g2g/util/time.hpp"

namespace g2g::sim {

class Simulator {
 public:
  /// Events strictly after `horizon` are discarded at run() time.
  explicit Simulator(TimePoint horizon = TimePoint::max()) : horizon_(horizon) {}

  [[nodiscard]] TimePoint now() const { return now_; }
  [[nodiscard]] TimePoint horizon() const { return horizon_; }

  /// Schedule `fn` at absolute time `t` (>= now).
  void at(TimePoint t, std::function<void()> fn);
  /// Schedule `fn` after a delay from now.
  void after(Duration d, std::function<void()> fn) { at(now_ + d, std::move(fn)); }

  /// Run until the queue drains or the horizon passes. Returns events fired.
  std::size_t run();
  /// Stop after the currently-executing event.
  void stop() { stopped_ = true; }

  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

 private:
  struct Item {
    TimePoint t;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  TimePoint horizon_;
  TimePoint now_ = TimePoint::zero();
  std::uint64_t next_seq_ = 0;
  bool stopped_ = false;
  std::priority_queue<Item, std::vector<Item>, Later> queue_;
};

}  // namespace g2g::sim
