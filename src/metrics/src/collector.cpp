#include "g2g/metrics/collector.hpp"

#include <algorithm>
#include <stdexcept>

namespace g2g::metrics {

void Collector::message_generated(MessageId id, NodeId src, NodeId dst, TimePoint at) {
  const auto [it, inserted] =
      messages_.emplace(id, MessageRecord{src, dst, at, std::nullopt, 0, at});
  if (!inserted) throw std::logic_error("duplicate message id");
  (void)it;
  if (obs_ != nullptr) {
    obs_->counters.generated->add();
    obs_->tracer.emit(
        {at, obs::EventKind::MessageGenerated, src, dst, id.value(), 0});
    obs_->tracer.open_message_span(at, id.value(), src, dst);
  }
}

void Collector::message_relayed(MessageId id, NodeId from, NodeId to, TimePoint at) {
  const auto it = messages_.find(id);
  if (it == messages_.end()) throw std::logic_error("relay of unknown message");
  ++it->second.replicas;
  ++total_relays_;
  const Duration hop = at - it->second.last_hop;
  it->second.last_hop = at;
  if (obs_ != nullptr) {
    obs_->counters.relays->add();
    obs_->counters.hop_delay_s->observe(hop.to_seconds());
    obs_->tracer.emit(
        {at, obs::EventKind::MessageRelayed, from, to, id.value(), hop.count()});
  }
}

void Collector::message_delivered(MessageId id, TimePoint at) {
  const auto it = messages_.find(id);
  if (it == messages_.end()) throw std::logic_error("delivery of unknown message");
  if (it->second.delivered.has_value()) return;  // keep the first time
  it->second.delivered = at;
  const Duration delay = at - it->second.created;
  if (obs_ != nullptr) {
    obs_->counters.deliveries->add();
    obs_->counters.delivery_delay_s->observe(delay.to_seconds());
    obs_->tracer.emit({at, obs::EventKind::MessageDelivered, it->second.src,
                       it->second.dst, id.value(), delay.count()});
    obs_->tracer.mark_message_delivered(id.value());
  }
}

void Collector::detection(const DetectionEvent& e) {
  detections_.push_back(e);
  if (obs_ != nullptr) {
    obs_->counters.detections->add();
    obs_->tracer.emit({e.at, obs::EventKind::Detection, e.detector, e.culprit, 0,
                       static_cast<std::int64_t>(e.method)});
  }
}

const NodeCosts& Collector::costs(NodeId n) const {
  static const NodeCosts kEmpty{};
  return n.value() < costs_.size() ? costs_[n.value()] : kEmpty;
}

std::size_t Collector::delivered_count() const {
  return static_cast<std::size_t>(
      std::count_if(messages_.begin(), messages_.end(),
                    [](const auto& kv) { return kv.second.delivered.has_value(); }));
}

double Collector::success_rate() const {
  return messages_.empty() ? 0.0
                           : static_cast<double>(delivered_count()) /
                                 static_cast<double>(messages_.size());
}

Samples Collector::delays() const {
  Samples out;
  for (const auto& [id, rec] : messages_) {
    if (rec.delivered.has_value()) out.add((*rec.delivered - rec.created).to_seconds());
  }
  return out;
}

double Collector::avg_replicas() const {
  if (messages_.empty()) return 0.0;
  double total = 0.0;
  for (const auto& [id, rec] : messages_) total += rec.replicas;
  return total / static_cast<double>(messages_.size());
}

std::vector<NodeId> Collector::detected_nodes() const {
  std::vector<NodeId> out;
  for (const auto& d : detections_) out.push_back(d.culprit);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void Collector::node_evicted(NodeId n, TimePoint at) {
  evictions_.emplace(n, at);  // keep the first eviction time
}

std::optional<DetectionEvent> Collector::first_detection(NodeId n) const {
  std::optional<DetectionEvent> best;
  for (const auto& d : detections_) {
    if (d.culprit == n && (!best || d.at < best->at)) best = d;
  }
  return best;
}

}  // namespace g2g::metrics
