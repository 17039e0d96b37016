#include "g2g/sim/simulator.hpp"

#include <stdexcept>

namespace g2g::sim {

void Simulator::at(TimePoint t, std::function<void()> fn) {
  if (t < now_) throw std::invalid_argument("cannot schedule in the past");
  queue_.push(Item{t, next_seq_++, std::move(fn)});
}

std::size_t Simulator::run() {
  std::size_t fired = 0;
  stopped_ = false;
  while (!queue_.empty() && !stopped_) {
    // priority_queue::top returns const&; the item must be moved out before
    // pop, so copy the cheap fields and steal the callback.
    auto fn = std::move(const_cast<Item&>(queue_.top()).fn);
    const TimePoint t = queue_.top().t;
    queue_.pop();
    if (t > horizon_) continue;  // drain silently past the horizon
    now_ = t;
    fn();
    ++fired;
  }
  return fired;
}

}  // namespace g2g::sim
