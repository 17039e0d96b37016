#include "g2g/core/experiment.hpp"

#include <gtest/gtest.h>

namespace g2g::core {
namespace {

// A reduced scenario so the experiment tests stay fast: fewer nodes, shorter
// window, sparser traffic.
Scenario small_scenario() {
  Scenario s = infocom05_scenario();
  s.trace_config.nodes = 16;
  s.trace_config.duration = Duration::days(2);
  s.window_start = TimePoint::from_seconds(8.0 * 3600.0);
  return s;
}

ExperimentConfig small_config(Protocol p) {
  ExperimentConfig cfg;
  cfg.protocol = p;
  cfg.scenario = small_scenario();
  cfg.sim_window = Duration::hours(2);
  cfg.traffic_window = Duration::hours(1);
  cfg.mean_interarrival = Duration::seconds(30.0);
  cfg.seed = 11;
  return cfg;
}

TEST(Experiment, DeterministicInSeed) {
  const ExperimentResult a = run_experiment(small_config(Protocol::G2GEpidemic));
  const ExperimentResult b = run_experiment(small_config(Protocol::G2GEpidemic));
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_DOUBLE_EQ(a.avg_replicas, b.avg_replicas);
  EXPECT_EQ(a.deviants, b.deviants);
}

TEST(Experiment, SeedChangesOutcome) {
  auto cfg = small_config(Protocol::Epidemic);
  const ExperimentResult a = run_experiment(cfg);
  cfg.seed = 12;
  const ExperimentResult b = run_experiment(cfg);
  EXPECT_NE(a.generated, 0u);
  // Traffic schedules differ, so generated counts almost surely differ.
  EXPECT_TRUE(a.generated != b.generated || a.delivered != b.delivered);
}

TEST(Experiment, GeneratesTrafficOnlyInWindow) {
  const ExperimentResult r = run_experiment(small_config(Protocol::Epidemic));
  EXPECT_GT(r.generated, 50u);
  for (const auto& rec : r.collector.messages()) {
    EXPECT_LT(rec.created, TimePoint::zero() + Duration::hours(1));
  }
}

TEST(Experiment, DeviantSelectionRespectsCount) {
  auto cfg = small_config(Protocol::G2GEpidemic);
  cfg.deviation = proto::Behavior::Dropper;
  cfg.deviant_count = 5;
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_EQ(r.deviants.size(), 5u);
  EXPECT_EQ(r.deviant_count, 5u);
  // Detection metrics only cover deviants.
  EXPECT_LE(r.detected_count, 5u);
}

TEST(Experiment, DeviantCountClampsToPopulation) {
  auto cfg = small_config(Protocol::Epidemic);
  cfg.deviation = proto::Behavior::Dropper;
  cfg.deviant_count = 10000;
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_EQ(r.deviants.size(), 16u);
}

TEST(Experiment, Delta1OverrideShortensLifetime) {
  auto long_cfg = small_config(Protocol::Epidemic);
  auto short_cfg = long_cfg;
  short_cfg.delta1_override = Duration::minutes(3);
  const ExperimentResult long_r = run_experiment(long_cfg);
  const ExperimentResult short_r = run_experiment(short_cfg);
  EXPECT_LT(short_r.avg_replicas, long_r.avg_replicas);
  EXPECT_LE(short_r.success_rate, long_r.success_rate + 1e-9);
}

TEST(Experiment, ProtocolNamesAndPredicates) {
  EXPECT_STREQ(to_string(Protocol::Epidemic), "Epidemic");
  EXPECT_STREQ(to_string(Protocol::G2GDelegationLastContact), "G2G Dest Last Contact");
  EXPECT_TRUE(is_g2g(Protocol::G2GEpidemic));
  EXPECT_FALSE(is_g2g(Protocol::DelegationFrequency));
  EXPECT_TRUE(is_delegation(Protocol::DelegationLastContact));
  EXPECT_FALSE(is_delegation(Protocol::Epidemic));
}

TEST(Experiment, RunRepeatedAggregates) {
  auto cfg = small_config(Protocol::Epidemic);
  const AggregateResult agg = run_repeated(cfg, 3);
  EXPECT_EQ(agg.success_rate.count(), 3u);
  EXPECT_GT(agg.success_rate.mean(), 0.0);
  EXPECT_LE(agg.success_rate.max(), 1.0);
}

TEST(Experiment, PresetsMatchPaperTimings) {
  const Scenario inf = infocom05_scenario();
  EXPECT_EQ(inf.epidemic_delta1, Duration::minutes(30));
  EXPECT_EQ(inf.delegation_delta1, Duration::minutes(45));
  EXPECT_EQ(inf.quality_frame, Duration::minutes(34));
  const Scenario cam = cambridge06_scenario();
  EXPECT_EQ(cam.epidemic_delta1, Duration::minutes(35));
  EXPECT_EQ(cam.delegation_delta1, Duration::minutes(75));
  EXPECT_EQ(cam.trace_config.nodes, 36u);
}

TEST(Experiment, PayoffPositiveForParticipantsZeroForEvicted) {
  auto cfg = small_config(Protocol::G2GEpidemic);
  cfg.deviation = proto::Behavior::Dropper;
  cfg.deviant_count = 4;
  const ExperimentResult r = run_experiment(cfg);
  for (std::uint32_t i = 0; i < 16; ++i) {
    const double p = node_payoff(r, NodeId(i));
    if (r.collector.evictions().contains(NodeId(i))) {
      EXPECT_EQ(p, 0.0);
    } else {
      EXPECT_GT(p, 0.0);
    }
  }
}

class ProtocolSmokeTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(ProtocolSmokeTest, RunsAndDeliversSomething) {
  const ExperimentResult r = run_experiment(small_config(GetParam()));
  EXPECT_GT(r.generated, 0u);
  EXPECT_GT(r.delivered, 0u);
  EXPECT_GT(r.success_rate, 0.0);
  EXPECT_EQ(r.false_positives, 0u);
  EXPECT_GE(r.community_count, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ProtocolSmokeTest,
                         ::testing::Values(Protocol::Epidemic, Protocol::G2GEpidemic,
                                           Protocol::DelegationFrequency,
                                           Protocol::DelegationLastContact,
                                           Protocol::G2GDelegationFrequency,
                                           Protocol::G2GDelegationLastContact),
                         [](const auto& info) {
                           std::string name = to_string(info.param);
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace g2g::core
