// Property-style invariant sweeps: for every protocol and a set of seeds,
// run a mid-size experiment and check the invariants that must hold on any
// execution, independent of topology or timing.
#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "g2g/core/experiment.hpp"
#include "g2g/obs/event.hpp"

namespace g2g::core {
namespace {

ExperimentConfig sweep_config(Protocol p, std::uint64_t seed,
                              proto::Behavior deviation = proto::Behavior::Faithful,
                              std::size_t deviants = 0) {
  ExperimentConfig cfg;
  cfg.protocol = p;
  cfg.scenario = infocom05_scenario();
  cfg.scenario.trace_config.nodes = 20;
  cfg.scenario.trace_config.duration = Duration::days(2);
  cfg.scenario.window_start = TimePoint::from_seconds(8.0 * 3600.0);
  cfg.sim_window = Duration::hours(2.5);
  cfg.traffic_window = Duration::hours(1.5);
  cfg.mean_interarrival = Duration::seconds(20.0);
  cfg.deviation = deviation;
  cfg.deviant_count = deviants;
  cfg.seed = seed;
  return cfg;
}

using SweepParam = std::tuple<Protocol, std::uint64_t>;

class InvariantSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(InvariantSweep, ConservationAndSanity) {
  const auto [protocol, seed] = GetParam();
  const ExperimentResult r = run_experiment(sweep_config(protocol, seed));

  // Message conservation.
  EXPECT_LE(r.delivered, r.generated);
  EXPECT_GE(r.success_rate, 0.0);
  EXPECT_LE(r.success_rate, 1.0);
  EXPECT_EQ(r.delay_seconds.count(), r.delivered);

  std::uint64_t replica_sum = 0;
  for (const auto& rec : r.collector.messages()) {
    replica_sum += rec.replicas;
    // Delivery never precedes creation; delays bounded by the window.
    if (rec.delivered.has_value()) {
      EXPECT_GE(*rec.delivered, rec.created);
      EXPECT_LE(*rec.delivered - rec.created, Duration::hours(3));
    }
  }
  EXPECT_EQ(replica_sum, r.collector.total_relays());

  // No deviants => no accusations, no evictions.
  EXPECT_TRUE(r.collector.detections().empty());
  EXPECT_TRUE(r.collector.evictions().empty());
  EXPECT_EQ(r.false_positives, 0u);

  // Cost symmetry: total bytes sent == total bytes received across nodes
  // (every transfer has both endpoints accounted).
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  for (std::uint32_t n = 0; n < 20; ++n) {
    sent += r.collector.costs(NodeId(n)).bytes_sent;
    received += r.collector.costs(NodeId(n)).bytes_received;
  }
  EXPECT_GT(sent, 0u);
  // Not exactly equal: control messages are accounted one-way by design
  // (signed_control bytes go sender->receiver), so totals must match.
  EXPECT_EQ(sent, received);

  // Memory integrals are non-negative and finite.
  for (std::uint32_t n = 0; n < 20; ++n) {
    const double mem = r.collector.costs(NodeId(n)).memory_byte_seconds;
    EXPECT_GE(mem, 0.0);
    EXPECT_LT(mem, 1e15);
  }
}

TEST_P(InvariantSweep, DeterministicReplay) {
  const auto [protocol, seed] = GetParam();
  const ExperimentResult a = run_experiment(sweep_config(protocol, seed));
  const ExperimentResult b = run_experiment(sweep_config(protocol, seed));
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_DOUBLE_EQ(a.avg_replicas, b.avg_replicas);
  for (std::uint32_t n = 0; n < 20; ++n) {
    EXPECT_EQ(a.collector.costs(NodeId(n)).bytes_sent,
              b.collector.costs(NodeId(n)).bytes_sent);
    EXPECT_EQ(a.collector.costs(NodeId(n)).signatures,
              b.collector.costs(NodeId(n)).signatures);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolsBySeed, InvariantSweep,
    ::testing::Combine(::testing::Values(Protocol::Epidemic, Protocol::G2GEpidemic,
                                         Protocol::DelegationFrequency,
                                         Protocol::G2GDelegationLastContact),
                       ::testing::Values(1ULL, 2ULL, 3ULL)),
    [](const auto& info) {
      std::string name = to_string(std::get<0>(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

using DeviantParam = std::tuple<Protocol, proto::Behavior, std::uint64_t>;

class DeviantSweep : public ::testing::TestWithParam<DeviantParam> {};

TEST_P(DeviantSweep, AccusationsAreSoundAndVerifiable) {
  const auto [protocol, behavior, seed] = GetParam();
  const ExperimentResult r = run_experiment(sweep_config(protocol, seed, behavior, 5));

  // Soundness: every accusation targets an actual deviant.
  EXPECT_EQ(r.false_positives, 0u);
  for (const auto& d : r.collector.detections()) {
    EXPECT_TRUE(std::binary_search(r.deviants.begin(), r.deviants.end(), d.culprit));
    // A deviant can still be a detector for its own traffic (a dropper
    // source faithfully tests its relays), but never accuses itself.
    EXPECT_NE(d.detector, d.culprit);
    EXPECT_GE(d.after_delta1, -Duration::hours(3));  // destination tests may predate Delta1
    EXPECT_LE(d.at, TimePoint::zero() + Duration::hours(3));
  }
  // Eviction set == detected set.
  for (const NodeId n : r.collector.detected_nodes()) {
    EXPECT_TRUE(r.collector.evictions().contains(n));
  }
}

INSTANTIATE_TEST_SUITE_P(
    DeviationsBySeed, DeviantSweep,
    ::testing::Combine(::testing::Values(Protocol::G2GEpidemic,
                                         Protocol::G2GDelegationLastContact),
                       ::testing::Values(proto::Behavior::Dropper, proto::Behavior::Liar,
                                         proto::Behavior::Cheater),
                       ::testing::Values(4ULL, 5ULL)),
    [](const auto& info) {
      std::string name = std::string(to_string(std::get<0>(info.param))) + "_" +
                         proto::to_string(std::get<1>(info.param)) + "_seed" +
                         std::to_string(std::get<2>(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// -- randomized-seed sweeps over the mechanism invariants ---------------------
//
// Seeds are drawn from an Rng rather than hand-picked, so every rebuild of
// the test list walks the same arbitrary-but-reproducible corner of seed
// space. Three invariants must hold on every execution:
//   1. no holder forwards one message to more than relay_fanout relays
//      (the two-relay cap is the Nash mechanism itself);
//   2. a proof of misbehaviour always leads to eviction;
//   3. no honest node is ever evicted.

std::vector<std::uint64_t> randomized_seeds() {
  Rng rng(0x12BA51C5);
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < 6; ++i) seeds.push_back(rng.next() % 100000);
  return seeds;
}

class RandomizedInvariantSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomizedInvariantSweep, RelayFanoutIsNeverExceeded) {
  ExperimentConfig cfg =
      sweep_config(Protocol::G2GEpidemic, GetParam(), proto::Behavior::Dropper, 4);
  cfg.trace_ring = 1u << 20;
  const ExperimentResult r = run_experiment(cfg);
  // The ring did not wrap, so the snapshot holds every emitted event.
  ASSERT_LT(r.events.size(), std::size_t{1} << 20);

  // Step-5 KEY reveals are the moment a forward becomes final: count them
  // per (giver, message). Two exclusions: the source floods epidemically
  // (only *relays* carry the two-forward duty), and handing the message to
  // its destination is delivery, not relay duty.
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint32_t> forwards;
  for (const auto& e : r.events) {
    if (e.kind != obs::EventKind::HsKeyReveal) continue;
    const metrics::Collector::MessageRecord* rec = r.collector.message(MessageId(e.ref));
    ASSERT_NE(rec, nullptr) << "unknown message ref " << e.ref;
    if (e.a == rec->src || e.b == rec->dst) continue;
    ++forwards[{e.a.value(), e.ref}];
  }
  EXPECT_FALSE(forwards.empty());
  for (const auto& [key, count] : forwards) {
    EXPECT_LE(count, 2u) << "node " << key.first << " message " << key.second;
  }
}

TEST_P(RandomizedInvariantSweep, PomImpliesEvictionAndHonestNodesSurvive) {
  const proto::Behavior behaviors[] = {proto::Behavior::Dropper, proto::Behavior::Liar,
                                       proto::Behavior::Cheater};
  const proto::Behavior behavior = behaviors[GetParam() % 3];
  for (const Protocol p : {Protocol::G2GEpidemic, Protocol::G2GDelegationLastContact}) {
    const ExperimentResult r = run_experiment(sweep_config(p, GetParam(), behavior, 5));
    // 2. Every proof of misbehaviour evicts its culprit.
    for (const auto& d : r.collector.detections()) {
      EXPECT_TRUE(r.collector.evictions().contains(d.culprit))
          << to_string(p) << " culprit " << d.culprit.value() << " detected but not evicted";
    }
    // 3. Every eviction targets an actual deviant: honest nodes are safe.
    for (const auto& [node, at] : r.collector.evictions()) {
      EXPECT_TRUE(std::binary_search(r.deviants.begin(), r.deviants.end(), node))
          << to_string(p) << " honest node " << node.value() << " evicted";
    }
    EXPECT_EQ(r.false_positives, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, RandomizedInvariantSweep,
                         ::testing::ValuesIn(randomized_seeds()),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace g2g::core
