#include "g2g/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "g2g/sim/traffic.hpp"

namespace g2g::sim {
namespace {

TimePoint at(double s) { return TimePoint::from_seconds(s); }

TEST(Simulator, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(at(30), [&] { order.push_back(3); });
  sim.at(at(10), [&] { order.push_back(1); });
  sim.at(at(20), [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), at(30));
}

TEST(Simulator, SameTimestampIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.at(at(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  std::vector<double> fired;
  sim.at(at(1), [&] {
    fired.push_back(sim.now().to_seconds());
    sim.after(Duration::seconds(2.0), [&] { fired.push_back(sim.now().to_seconds()); });
  });
  sim.run();
  EXPECT_EQ(fired, (std::vector<double>{1.0, 3.0}));
}

TEST(Simulator, RejectsSchedulingInThePast) {
  Simulator sim;
  sim.at(at(10), [] {});
  sim.run();
  EXPECT_THROW(sim.at(at(5), [] {}), std::invalid_argument);
}

TEST(Simulator, HorizonDropsLateEvents) {
  Simulator sim(at(100));
  int fired = 0;
  sim.at(at(50), [&] { ++fired; });
  sim.at(at(150), [&] { ++fired; });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, StopHaltsImmediately) {
  Simulator sim;
  int fired = 0;
  sim.at(at(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.at(at(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
  // A second run resumes.
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Traffic, WindowAndEndpointInvariants) {
  TrafficConfig cfg;
  cfg.start = at(100);
  cfg.end = at(500);
  cfg.mean_interarrival = Duration::seconds(2.0);
  const auto demands = generate_traffic(cfg, 10);
  EXPECT_GT(demands.size(), 100u);  // ~200 expected
  std::set<std::uint64_t> ids;
  for (const auto& d : demands) {
    EXPECT_GE(d.at, cfg.start);
    EXPECT_LT(d.at, cfg.end);
    EXPECT_NE(d.src, d.dst);
    EXPECT_LT(d.src.value(), 10u);
    EXPECT_LT(d.dst.value(), 10u);
    ids.insert(d.id.value());
  }
  EXPECT_EQ(ids.size(), demands.size());  // unique message ids
}

TEST(Traffic, PoissonMeanApproximatelyCorrect) {
  TrafficConfig cfg;
  cfg.start = TimePoint::zero();
  cfg.end = at(40000);
  cfg.mean_interarrival = Duration::seconds(4.0);
  const auto demands = generate_traffic(cfg, 5);
  EXPECT_NEAR(static_cast<double>(demands.size()), 10000.0, 300.0);
}

TEST(Traffic, DeterministicInSeed) {
  TrafficConfig cfg;
  cfg.end = at(1000);
  const auto a = generate_traffic(cfg, 8);
  const auto b = generate_traffic(cfg, 8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
  }
}

TEST(Traffic, SourcesRoughlyUniform) {
  TrafficConfig cfg;
  cfg.end = at(40000);
  cfg.mean_interarrival = Duration::seconds(1.0);
  const auto demands = generate_traffic(cfg, 4);
  std::array<std::size_t, 4> counts{};
  for (const auto& d : demands) ++counts[d.src.value()];
  for (const std::size_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), static_cast<double>(demands.size()) / 4.0,
                static_cast<double>(demands.size()) * 0.05);
  }
}

TEST(Traffic, RejectsBadConfigs) {
  TrafficConfig cfg;
  EXPECT_THROW((void)generate_traffic(cfg, 1), std::invalid_argument);
  cfg.end = cfg.start;
  EXPECT_THROW((void)generate_traffic(cfg, 5), std::invalid_argument);
  cfg = TrafficConfig{};
  cfg.mean_interarrival = Duration::zero();
  EXPECT_THROW((void)generate_traffic(cfg, 5), std::invalid_argument);
}

}  // namespace
}  // namespace g2g::sim
