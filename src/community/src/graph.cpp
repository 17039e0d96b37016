#include "g2g/community/graph.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace g2g::community {

ContactGraphConfig ContactGraphConfig::for_span(Duration span, double contacts_per_day,
                                                double minutes_per_day) {
  const double days = std::max(span.to_seconds() / 86400.0, 0.5);
  ContactGraphConfig cfg;
  cfg.min_contacts = static_cast<std::size_t>(std::max(3.0, contacts_per_day * days));
  cfg.min_total_duration = Duration::minutes(std::max(10.0, minutes_per_day * days));
  return cfg;
}

ContactGraph::ContactGraph(std::size_t node_count)
    : n_(node_count), adj_(node_count * node_count, false) {}

ContactGraph::ContactGraph(const trace::ContactTrace& trace, const ContactGraphConfig& config)
    : ContactGraph(trace.node_count()) {
  struct PairAccum {
    std::size_t contacts = 0;
    Duration total = Duration::zero();
  };
  // Node ids are dense and every event has a < b < n, so each pair's history
  // accumulates in its slot of the n x n table's upper triangle.
  std::vector<PairAccum> accum(n_ * n_);
  for (const auto& e : trace.events()) {
    auto& pa = accum[index(e.a, e.b)];
    ++pa.contacts;
    pa.total = pa.total + e.duration();
  }
  // Edges are added in ascending (a, b) order; only pairs that met count.
  for (std::uint32_t a = 0; a < n_; ++a) {
    for (std::uint32_t b = a + 1; b < n_; ++b) {
      const PairAccum& pa = accum[index(NodeId(a), NodeId(b))];
      if (pa.contacts > 0 &&
          (pa.contacts >= config.min_contacts || pa.total >= config.min_total_duration)) {
        add_edge(NodeId(a), NodeId(b));
      }
    }
  }
}

void ContactGraph::add_edge(NodeId a, NodeId b) {
  if (a == b) throw std::invalid_argument("self-edge");
  if (a.value() >= n_ || b.value() >= n_) throw std::out_of_range("node id out of range");
  if (!has_edge(a, b)) {
    adj_[index(a, b)] = true;
    adj_[index(b, a)] = true;
    ++edges_;
  }
}

bool ContactGraph::has_edge(NodeId a, NodeId b) const {
  if (a.value() >= n_ || b.value() >= n_) return false;
  return adj_[index(a, b)];
}

std::vector<NodeId> ContactGraph::neighbors(NodeId a) const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < n_; ++i) {
    if (adj_[index(a, NodeId(static_cast<std::uint32_t>(i)))]) {
      out.emplace_back(static_cast<std::uint32_t>(i));
    }
  }
  return out;
}

std::size_t ContactGraph::degree(NodeId a) const { return neighbors(a).size(); }

}  // namespace g2g::community
