#include "g2g/obs/registry.hpp"

#include <algorithm>
#include <stdexcept>

namespace g2g::obs {

Histogram::Histogram(std::vector<double> edges) : edges_(std::move(edges)) {
  if (!std::is_sorted(edges_.begin(), edges_.end()) ||
      std::adjacent_find(edges_.begin(), edges_.end()) != edges_.end()) {
    throw std::invalid_argument("histogram edges must be strictly ascending");
  }
  buckets_.assign(edges_.size() + 1, 0);
}

void Histogram::observe(double v) {
  // First bucket whose inclusive upper bound admits v; past-the-end =
  // overflow. upper_bound on (v - 0) with <= semantics == lower_bound.
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), v);
  ++buckets_[static_cast<std::size_t>(it - edges_.begin())];
  ++count_;
  sum_ += v;
}

Counter& Registry::counter(CounterName name) { return counters_[name.c_str()]; }

Histogram& Registry::histogram(CounterName name, std::vector<double> edges) {
  const auto it = histograms_.find(name.c_str());
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name.c_str(), Histogram(std::move(edges))).first->second;
}

std::uint64_t Registry::value(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

const Histogram* Registry::find_histogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

}  // namespace g2g::obs
