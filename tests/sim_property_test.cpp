// Property tests for the discrete-event core: the simulator's ordering
// contract ((t, seq) — equal timestamps fire in scheduling order), the
// horizon guarantee (a contact trace scheduled through at() never fires a
// callback after the horizon), and whole-pipeline seed replay (the same config twice yields a
// byte-identical serialized result). These are the assumptions every other
// determinism test in the repo quietly leans on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "g2g/core/experiment.hpp"
#include "g2g/core/json.hpp"
#include "g2g/sim/simulator.hpp"
#include "g2g/trace/contact.hpp"
#include "g2g/util/rng.hpp"

namespace g2g::sim {
namespace {

TEST(SimProperty, EqualTimestampsFireInSchedulingOrder) {
  Simulator sim;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    sim.at(TimePoint::from_seconds(5.0), [&fired, i] { fired.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(fired.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(SimProperty, ExecutionIsAStableSortOfRandomSchedules) {
  // For many random schedules (with heavy timestamp collisions), the firing
  // order must equal the stable sort of the scheduling order by time —
  // regardless of how the underlying heap happens to arrange ties.
  Rng rng(0xD15C);
  for (int trial = 0; trial < 50; ++trial) {
    Simulator sim;
    std::vector<std::pair<double, int>> scheduled;  // (time, scheduling index)
    std::vector<int> fired;
    const int n = 3 + static_cast<int>(rng.next() % 60);
    for (int i = 0; i < n; ++i) {
      // Draw from a tiny set of instants so ties are the common case.
      const double t = static_cast<double>(rng.next() % 5);
      scheduled.emplace_back(t, i);
      sim.at(TimePoint::from_seconds(t), [&fired, i] { fired.push_back(i); });
    }
    std::stable_sort(scheduled.begin(), scheduled.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    ASSERT_EQ(sim.run(), static_cast<std::size_t>(n)) << "trial " << trial;
    ASSERT_EQ(fired.size(), static_cast<std::size_t>(n)) << "trial " << trial;
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(fired[static_cast<std::size_t>(i)], scheduled[static_cast<std::size_t>(i)].second)
          << "trial " << trial;
    }
  }
}

TEST(SimProperty, NestedSchedulingAtNowFiresAfterCurrentEvent) {
  Simulator sim;
  std::vector<int> fired;
  sim.at(TimePoint::from_seconds(1.0), [&] {
    fired.push_back(0);
    // Scheduled mid-event at the current instant: runs after every event
    // already queued for t=1, because it gets a later seq.
    sim.at(sim.now(), [&fired] { fired.push_back(2); });
  });
  sim.at(TimePoint::from_seconds(1.0), [&fired] { fired.push_back(1); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
}

TEST(SimProperty, ScheduledTraceNeverFiresPastTheHorizon) {
  Rng rng(0x40A1);
  for (int trial = 0; trial < 30; ++trial) {
    const TimePoint horizon = TimePoint::from_seconds(100.0);
    trace::ContactTrace trace;
    std::size_t within = 0;
    const int contacts = 5 + static_cast<int>(rng.next() % 40);
    for (int i = 0; i < contacts; ++i) {
      const auto a = NodeId(static_cast<std::uint32_t>(rng.next() % 8));
      auto b = NodeId(static_cast<std::uint32_t>(rng.next() % 8));
      if (a == b) b = NodeId((b.value() + 1) % 8);
      // Contacts deliberately straddle and overshoot the horizon.
      const double start = rng.uniform(0.0, 180.0);
      const double end = start + rng.uniform(0.1, 60.0);
      trace.add(a, b, TimePoint::from_seconds(start), TimePoint::from_seconds(end));
      if (start <= 100.0) ++within;
      if (end <= 100.0) ++within;
    }
    trace.finalize();

    // One callback at each contact's start and end, as a protocol network
    // schedules them; each records the time it fired at.
    Simulator sim(horizon);
    std::vector<std::pair<TimePoint, bool>> fired;
    for (const auto& e : trace.events()) {
      sim.at(e.start, [&sim, &fired] { fired.emplace_back(sim.now(), true); });
      sim.at(e.end, [&sim, &fired] { fired.emplace_back(sim.now(), false); });
    }
    sim.run();

    for (const auto& [t, up] : fired) {
      EXPECT_LE(t, horizon) << "trial " << trial << (up ? " up" : " down");
    }
    EXPECT_LE(sim.now(), horizon) << "trial " << trial;
    // finalize() may coalesce overlapping intervals, so `within` is only an
    // upper bound on the callbacks that survive the horizon cut.
    EXPECT_LE(fired.size(), static_cast<std::size_t>(2 * contacts)) << "trial " << trial;
    EXPECT_LE(fired.size(), within) << "trial " << trial;
  }
}

core::ExperimentConfig replay_config(std::uint64_t seed) {
  core::ExperimentConfig cfg;
  cfg.protocol = core::Protocol::G2GEpidemic;
  cfg.scenario = core::infocom05_scenario();
  cfg.scenario.trace_config.nodes = 14;
  cfg.scenario.trace_config.duration = Duration::days(2);
  cfg.scenario.window_start = TimePoint::from_seconds(8.0 * 3600.0);
  cfg.sim_window = Duration::hours(1.5);
  cfg.traffic_window = Duration::hours(1);
  cfg.mean_interarrival = Duration::seconds(45.0);
  cfg.deviation = proto::Behavior::Dropper;
  cfg.deviant_count = 3;
  cfg.seed = seed;
  return cfg;
}

TEST(SimProperty, SeedReplayIsByteIdentical) {
  for (const std::uint64_t seed : {7ULL, 21ULL}) {
    const std::string a = core::to_json(core::run_experiment(replay_config(seed)));
    const std::string b = core::to_json(core::run_experiment(replay_config(seed)));
    EXPECT_EQ(a, b) << "seed " << seed;
  }
  // Different seeds must not collide (the replay test would be vacuous if
  // the seed never reached the pipeline).
  const std::string a = core::to_json(core::run_experiment(replay_config(7)));
  const std::string c = core::to_json(core::run_experiment(replay_config(8)));
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace g2g::sim
