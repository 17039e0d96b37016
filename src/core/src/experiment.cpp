#include "g2g/core/experiment.hpp"

#include <algorithm>
#include <stdexcept>

#include "g2g/community/graph.hpp"
#include "g2g/proto/delegation.hpp"
#include "g2g/proto/epidemic.hpp"
#include "g2g/proto/g2g_delegation.hpp"
#include "g2g/proto/g2g_epidemic.hpp"
#include "g2g/proto/network.hpp"
#include "g2g/sim/traffic.hpp"
#include "g2g/trace/synthetic.hpp"

namespace g2g::core {

const char* to_string(Protocol p) {
  switch (p) {
    case Protocol::Epidemic: return "Epidemic";
    case Protocol::G2GEpidemic: return "G2G Epidemic";
    case Protocol::DelegationFrequency: return "Deleg.Dest Frequency";
    case Protocol::DelegationLastContact: return "Deleg.Dest Last Contact";
    case Protocol::G2GDelegationFrequency: return "G2G Dest Frequency";
    case Protocol::G2GDelegationLastContact: return "G2G Dest Last Contact";
  }
  return "?";
}

bool is_g2g(Protocol p) {
  return p == Protocol::G2GEpidemic || p == Protocol::G2GDelegationFrequency ||
         p == Protocol::G2GDelegationLastContact;
}

bool is_delegation(Protocol p) {
  return p != Protocol::Epidemic && p != Protocol::G2GEpidemic;
}

namespace {

proto::QualityKind quality_kind_of(Protocol p) {
  return (p == Protocol::DelegationLastContact || p == Protocol::G2GDelegationLastContact)
             ? proto::QualityKind::DestinationLastContact
             : proto::QualityKind::DestinationFrequency;
}

std::vector<NodeId> pick_deviants(Rng& rng, std::size_t node_count, std::size_t deviants) {
  std::vector<NodeId> all;
  all.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) all.emplace_back(static_cast<std::uint32_t>(i));
  rng.shuffle(all);
  all.resize(std::min(deviants, node_count));
  std::sort(all.begin(), all.end());
  return all;
}

struct RunInputs {
  const std::vector<proto::BehaviorConfig>* behaviors;
  const std::vector<sim::TrafficDemand>* demands;
  const trace::ContactTrace* full_trace;  // nullptr => no warm-up
  TimePoint window_start;
};

template <typename NodeT>
void run_network(const trace::ContactTrace& window, proto::NetworkConfig net_config,
                 const RunInputs& in, metrics::Collector& collector,
                 obs::StageProfile& stages) {
  proto::Network<NodeT> network(window, std::move(net_config), *in.behaviors, collector);
  {
    obs::StageTimer timer(stages, obs::StageKind::WarmUp);
    if (in.full_trace != nullptr) network.warm_up(in.full_trace->events(), in.window_start);
    network.schedule_traffic(*in.demands);
  }
  {
    obs::StageTimer timer(stages, obs::StageKind::Simulation);
    network.run();
  }
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  Rng rng(config.seed * 0x9e3779b97f4a7c15ULL + 17);
  ExperimentResult result;

  // The run's observability bundle: counters always, tracing only on request.
  obs::ObsContext obs;
  if (config.trace_sink != nullptr) obs.tracer.add_sink(config.trace_sink);
  if (config.trace_ring > 0) obs.tracer.enable_ring(config.trace_ring);

  // 1. The trace substrate (full multi-day trace).
  obs::StageTimer trace_timer(result.stages, obs::StageKind::TraceGen);
  trace::SyntheticConfig trace_config = config.scenario.trace_config;
  trace_config.seed = trace_config.seed * 1000003ULL + config.seed;
  const trace::SyntheticTrace synthetic = trace::generate_trace(trace_config);
  trace_timer.stop();

  // 2. Community detection on the full trace (k-clique percolation, as the
  //    paper does with the Palla et al. algorithm).
  obs::StageTimer community_timer(result.stages, obs::StageKind::Communities);
  const community::ContactGraph graph(
      synthetic.trace,
      community::ContactGraphConfig::for_span(synthetic.trace.end_time() -
                                              synthetic.trace.start_time()));
  community::CommunityMap communities =
      community::k_clique_communities(graph, config.scenario.kclique_k);
  community_timer.stop();

  // 3. The experiment window.
  const TimePoint w0 = config.scenario.window_start;
  const trace::ContactTrace window = synthetic.trace.slice(w0, w0 + config.sim_window);

  // 4. Protocol timing.
  const Duration delta1 = config.delta1_override.value_or(
      is_delegation(config.protocol) ? config.scenario.delegation_delta1
                                     : config.scenario.epidemic_delta1);

  proto::NodeConfig node_config;
  node_config.delta1 = delta1;
  node_config.delta2 = Duration::micros(
      static_cast<std::int64_t>(static_cast<double>(delta1.count()) * config.delta2_factor));
  node_config.relay_fanout = config.relay_fanout;
  node_config.quality_kind = quality_kind_of(config.protocol);
  node_config.quality_frame = config.scenario.quality_frame;
  node_config.global_ttl = !config.per_holder_ttl;
  node_config.max_buffer_messages = config.max_buffer_messages;

  proto::NetworkConfig net_config;
  net_config.node = node_config;
  net_config.suite = config.suite;
  net_config.communities = communities;
  net_config.horizon = TimePoint::zero() + config.sim_window;
  net_config.seed = config.seed * 7919 + 1;
  net_config.message_body_size = config.message_body_size;
  net_config.instant_pom_broadcast = config.instant_pom_broadcast;
  net_config.bandwidth_bytes_per_s = config.bandwidth_bytes_per_s;
  net_config.obs = &obs;

  // 5. Deviants.
  Rng deviant_rng = rng.fork(0xDE71A47);
  result.deviants = pick_deviants(deviant_rng, window.node_count(), config.deviant_count);
  std::vector<proto::BehaviorConfig> behaviors(window.node_count());
  for (const NodeId n : result.deviants) {
    behaviors[n.value()] =
        proto::BehaviorConfig{config.deviation, config.with_outsiders};
  }

  // 6. Traffic.
  sim::TrafficConfig traffic_config;
  traffic_config.mean_interarrival = config.mean_interarrival;
  traffic_config.start = TimePoint::zero();
  traffic_config.end = TimePoint::zero() + config.traffic_window;
  traffic_config.body_size = config.message_body_size;
  traffic_config.seed = config.seed * 104729 + 3;
  const auto demands = sim::generate_traffic(traffic_config, window.node_count());

  // 7. Run.
  const RunInputs inputs{&behaviors, &demands,
                         config.warm_up_tables ? &synthetic.trace : nullptr, w0};
  switch (config.protocol) {
    case Protocol::Epidemic:
      run_network<proto::EpidemicNode>(window, net_config, inputs, result.collector,
                                       result.stages);
      break;
    case Protocol::G2GEpidemic:
      run_network<proto::G2GEpidemicNode>(window, net_config, inputs, result.collector,
                                          result.stages);
      break;
    case Protocol::DelegationFrequency:
    case Protocol::DelegationLastContact:
      run_network<proto::DelegationNode>(window, net_config, inputs, result.collector,
                                         result.stages);
      break;
    case Protocol::G2GDelegationFrequency:
    case Protocol::G2GDelegationLastContact:
      run_network<proto::G2GDelegationNode>(window, net_config, inputs, result.collector,
                                            result.stages);
      break;
  }

  // 8. Extract.
  obs::StageTimer extract_timer(result.stages, obs::StageKind::Extraction);
  result.generated = result.collector.generated_count();
  result.delivered = result.collector.delivered_count();
  result.success_rate = result.collector.success_rate();
  result.delay_seconds = result.collector.delays();
  result.avg_replicas = result.collector.avg_replicas();
  result.community_count = communities.group_count();

  result.deviant_count = result.deviants.size();
  for (const NodeId n : result.deviants) {
    const auto first = result.collector.first_detection(n);
    if (first.has_value()) {
      ++result.detected_count;
      result.detection_minutes_after_delta1.add(first->after_delta1.to_minutes());
    }
  }
  result.detection_rate =
      result.deviant_count == 0
          ? 0.0
          : static_cast<double>(result.detected_count) /
                static_cast<double>(result.deviant_count);
  for (const NodeId n : result.collector.detected_nodes()) {
    if (!std::binary_search(result.deviants.begin(), result.deviants.end(), n)) {
      ++result.false_positives;
    }
  }
  extract_timer.stop();

  // Snapshot the run's observability state. The collector was detached from
  // the ObsContext when the network was destroyed, so the copies in `result`
  // never dangle.
  result.counters = obs.registry;
  if (config.trace_ring > 0) result.events = obs.tracer.ring();
  return result;
}

AggregateResult run_repeated(ExperimentConfig config, std::size_t runs,
                             ExperimentResult* last) {
  AggregateResult agg;
  for (std::size_t i = 0; i < runs; ++i) {
    config.seed = config.seed + (i == 0 ? 0 : 1);
    ExperimentResult r = run_experiment(config);
    agg.success_rate.add(r.success_rate);
    if (!r.delay_seconds.empty()) agg.avg_delay_s.add(r.delay_seconds.mean());
    agg.avg_replicas.add(r.avg_replicas);
    if (r.deviant_count > 0) {
      agg.detection_rate.add(r.detection_rate);
      if (!r.detection_minutes_after_delta1.empty()) {
        agg.detection_minutes.add(r.detection_minutes_after_delta1.mean());
      }
    }
    agg.false_positives += r.false_positives;
    if (last != nullptr && i + 1 == runs) *last = std::move(r);
  }
  return agg;
}

double node_payoff(const ExperimentResult& r, NodeId n, const PayoffWeights& w) {
  // Eviction (a verified PoM against the node) collapses the payoff.
  if (r.collector.evictions().contains(n)) return 0.0;

  double service = 0.0;
  for (const auto& rec : r.collector.messages()) {
    if (rec.src == n && rec.delivered.has_value()) service += w.per_delivery;
    if (rec.dst == n && rec.delivered.has_value()) service += w.per_reception;
  }
  const metrics::NodeCosts& c = r.collector.costs(n);
  const double energy = c.energy(w.per_byte, w.per_signature, w.per_heavy_hmac);
  const double memory = c.memory_byte_seconds / 1e6 * w.per_mbyte_second;
  return w.baseline + service - energy - memory;
}

}  // namespace g2g::core
