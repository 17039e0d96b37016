#include "g2g/metrics/collector.hpp"

#include <algorithm>
#include <stdexcept>

namespace g2g::metrics {

void Collector::message_generated(MessageId id, NodeId src, NodeId dst, TimePoint at) {
  if (id.value() == 0 || !id.valid()) throw std::logic_error("message ids start at 1");
  if (id.value() > records_.size()) records_.resize(id.value());
  MessageRecord& rec = records_[id.value() - 1];
  if (rec.id.valid()) throw std::logic_error("duplicate message id");
  rec = MessageRecord{id, src, dst, at, std::nullopt, 0, at};
  ++generated_;
  if (obs_ != nullptr) {
    obs_->counters.generated->add();
    obs_->tracer.emit(
        {at, obs::EventKind::MessageGenerated, src, dst, id.value(), 0});
    obs_->tracer.open_message_span(at, id.value(), src, dst);
  }
}

std::size_t Collector::slot(MessageId id) const {
  const std::uint64_t i = id.value() - 1;  // id 0 wraps past every slot
  return i < records_.size() && records_[i].id.valid() ? i : records_.size();
}

const Collector::MessageRecord* Collector::message(MessageId id) const {
  const std::size_t i = slot(id);
  return i < records_.size() ? &records_[i] : nullptr;
}

void Collector::message_relayed(MessageId id, NodeId from, NodeId to, TimePoint at) {
  const std::size_t i = slot(id);
  if (i == records_.size()) throw std::logic_error("relay of unknown message");
  MessageRecord& rec = records_[i];
  ++rec.replicas;
  ++total_relays_;
  const Duration hop = at - rec.last_hop;
  rec.last_hop = at;
  if (obs_ != nullptr) {
    obs_->counters.relays->add();
    obs_->counters.hop_delay_s->observe(hop.to_seconds());
    obs_->tracer.emit(
        {at, obs::EventKind::MessageRelayed, from, to, id.value(), hop.count()});
  }
}

void Collector::message_delivered(MessageId id, TimePoint at) {
  const std::size_t i = slot(id);
  if (i == records_.size()) throw std::logic_error("delivery of unknown message");
  MessageRecord& rec = records_[i];
  if (rec.delivered.has_value()) return;  // keep the first time
  rec.delivered = at;
  const Duration delay = at - rec.created;
  if (obs_ != nullptr) {
    obs_->counters.deliveries->add();
    obs_->counters.delivery_delay_s->observe(delay.to_seconds());
    obs_->tracer.emit({at, obs::EventKind::MessageDelivered, rec.src, rec.dst, id.value(),
                       delay.count()});
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
  return static_cast<std::size_t>(std::ranges::count_if(
      messages(), [](const MessageRecord& rec) { return rec.delivered.has_value(); }));
}

double Collector::success_rate() const {
  return generated_ == 0 ? 0.0
                         : static_cast<double>(delivered_count()) /
                               static_cast<double>(generated_);
}

Samples Collector::delays() const {
  Samples out;
  for (const MessageRecord& rec : messages()) {
    if (rec.delivered.has_value()) out.add((*rec.delivered - rec.created).to_seconds());
  }
  return out;
}

double Collector::avg_replicas() const {
  if (generated_ == 0) return 0.0;
  double total = 0.0;
  for (const MessageRecord& rec : messages()) total += rec.replicas;
  return total / static_cast<double>(generated_);
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
