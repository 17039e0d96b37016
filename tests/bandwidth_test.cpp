// Bandwidth-limited contacts (extension): a contact can carry at most
// duration * bandwidth bytes, so short meetings cannot complete transfers.
// The paper assumes unlimited bandwidth; the default config preserves that.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "g2g/core/experiment.hpp"
#include "g2g/proto/delegation.hpp"
#include "g2g/proto/epidemic.hpp"
#include "g2g/proto/g2g_epidemic.hpp"
#include "proto_test_util.hpp"

namespace g2g::proto {
namespace {

using testutil::Contact;
using testutil::World;
using testutil::make_trace;

TEST(Bandwidth, UnlimitedByDefault) {
  World<EpidemicNode> w(make_trace(4, {{0, 1, 100, 100.5}}));  // very short contact
  const MessageId id = w.send(0, 1, 50);
  w.run();
  EXPECT_TRUE(w.delivered(id));
}

TEST(Bandwidth, ShortContactCannotCarryTheMessage) {
  auto cfg = World<EpidemicNode>::default_config();
  cfg.bandwidth_bytes_per_s = 100.0;  // 100 B/s
  // 1-second contact: ~100 bytes of budget; the certificates alone eat it.
  World<EpidemicNode> w(make_trace(4, {{0, 1, 100, 101}}), cfg);
  const MessageId id = w.send(0, 1, 50);
  w.run();
  EXPECT_FALSE(w.delivered(id));
}

TEST(Bandwidth, LongContactCarriesIt) {
  auto cfg = World<EpidemicNode>::default_config();
  cfg.bandwidth_bytes_per_s = 100.0;
  // 60-second contact: 6000 bytes — plenty for auth + one message.
  World<EpidemicNode> w(make_trace(4, {{0, 1, 100, 160}}), cfg);
  const MessageId id = w.send(0, 1, 50);
  w.run();
  EXPECT_TRUE(w.delivered(id));
}

TEST(Bandwidth, BudgetLimitsMessagesPerContact) {
  auto cfg = World<EpidemicNode>::default_config();
  cfg.bandwidth_bytes_per_s = 100.0;
  // Node 0 holds five ~120-byte messages; a 5-second contact at 100 B/s
  // (500-byte budget) carries the auth handshake plus only a few of them.
  World<EpidemicNode> w(make_trace(6, {{0, 1, 1000, 1005}}), cfg);
  for (std::uint32_t i = 0; i < 5; ++i) w.send(0, 5, 50 + i * 10);
  w.run();
  std::size_t transferred = 0;
  for (const auto& rec : w.collector().messages()) transferred += rec.replicas;
  EXPECT_GE(transferred, 1u);
  EXPECT_LT(transferred, 5u);
}

TEST(Bandwidth, G2GHandshakeRespectsBudget) {
  auto cfg = World<G2GEpidemicNode>::default_config();
  cfg.bandwidth_bytes_per_s = 50.0;
  World<G2GEpidemicNode> w(make_trace(4, {{0, 1, 100, 102}}), cfg);  // ~100B budget
  const MessageId id = w.send(0, 1, 50);
  w.run();
  EXPECT_FALSE(w.delivered(id));
  EXPECT_EQ(w.replicas(id), 0u);
}

/// Node 0 holds eight messages for node 1; a 6-second contact at 100 B/s
/// carries the auth handshake and only the first few. Offers go out in
/// ascending H(m), so exactly the smallest hashes get through.
template <typename NodeT>
void expect_budget_cuts_offers_in_hash_order() {
  auto cfg = World<NodeT>::default_config();
  cfg.bandwidth_bytes_per_s = 100.0;
  World<NodeT> w(make_trace(4, {{0, 1, 1000, 1006}}), cfg);
  for (std::uint32_t i = 0; i < 8; ++i) w.send(0, 1, 50 + i * 10);
  w.run();
  const MessageTable& messages = w.network().messages();
  ASSERT_EQ(messages.size(), 8u);
  std::vector<std::pair<MessageHash, bool>> by_hash;  // (H(m), delivered)
  for (MessageRef m = 0; m < messages.size(); ++m) {
    by_hash.emplace_back(messages.hash(m), w.delivered(messages.id(m)));
  }
  std::sort(by_hash.begin(), by_hash.end());
  const auto first_missed =
      std::find_if(by_hash.begin(), by_hash.end(), [](const auto& e) { return !e.second; });
  const auto delivered = first_missed - by_hash.begin();
  EXPECT_GE(delivered, 1);
  EXPECT_LT(delivered, 8);
  EXPECT_TRUE(std::none_of(first_missed, by_hash.end(), [](const auto& e) { return e.second; }));
}

TEST(Bandwidth, EpidemicBudgetCutsOffersInHashOrder) {
  expect_budget_cuts_offers_in_hash_order<EpidemicNode>();
}

TEST(Bandwidth, DelegationBudgetCutsOffersInHashOrder) {
  expect_budget_cuts_offers_in_hash_order<DelegationNode>();
}

}  // namespace
}  // namespace g2g::proto

namespace g2g::core {
namespace {

TEST(BandwidthExperiment, ThroughputDegradesGracefully) {
  ExperimentConfig cfg;
  cfg.scenario = infocom05_scenario();
  cfg.scenario.trace_config.nodes = 20;
  cfg.protocol = Protocol::Epidemic;
  cfg.sim_window = Duration::hours(2);
  cfg.traffic_window = Duration::hours(1);
  cfg.mean_interarrival = Duration::seconds(10.0);
  cfg.seed = 8;

  // Unlimited is plumbed through ExperimentConfig via NetworkConfig default;
  // check the knob end to end using a direct Network.
  const ExperimentResult unlimited = run_experiment(cfg);
  EXPECT_GT(unlimited.success_rate, 0.15);
}

}  // namespace
}  // namespace g2g::core
