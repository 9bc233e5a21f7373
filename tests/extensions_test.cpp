// Tests for extensions beyond the paper's minimal setup: Double Q-learning,
// heterogeneous clusters, and latency percentiles.
#include <gtest/gtest.h>

#include "src/core/qnetwork.hpp"
#include "src/sim/cluster.hpp"
#include "src/workload/generator.hpp"

namespace hcrl {
namespace {

TEST(DoubleDqn, GroupedNetworkTrainsWithDoubleTargets) {
  core::GroupedQOptions o;
  o.encoder.num_servers = 4;
  o.encoder.num_groups = 2;
  o.autoencoder_dims = {6, 3};
  o.subq_hidden = 8;
  o.double_q = true;
  common::Rng rng(3);
  core::GroupedQNetwork net(o, rng);
  common::Rng srng(4);
  rl::Transition t;
  t.state.resize(o.encoder.full_state_dim());
  t.next_state.resize(o.encoder.full_state_dim());
  for (auto& v : t.state) v = srng.uniform();
  for (auto& v : t.next_state) v = srng.uniform();
  t.action = 1;
  t.reward_rate = -1.0;
  t.tau = 1e9;
  double first = 0.0, last = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double loss = net.train_batch({&t}, 0.5);
    if (i == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, first);
  EXPECT_NEAR(net.q_values(t.state)[1], -2.0, 0.6);  // r/beta = -1/0.5
}

sim::Job cheap_job(sim::JobId id, sim::Time arrival, sim::Time duration = 60.0) {
  sim::Job j;
  j.id = id;
  j.arrival = arrival;
  j.duration = duration;
  j.demand = sim::ResourceVector{0.2, 0.1, 0.01};
  return j;
}

TEST(HeterogeneousCluster, MixedPowerModelsAccountedSeparately) {
  sim::ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.server.start_asleep = false;
  std::vector<sim::ServerConfig> per_server(2, cfg.server);
  per_server[1].power.idle_watts = 40.0;   // a low-power machine
  per_server[1].power.peak_watts = 60.0;

  sim::RoundRobinAllocator alloc;
  sim::AlwaysOnPolicy power;
  sim::Cluster cluster(cfg, per_server, alloc, power);
  // Both idle: total power must be 87 + 40.
  EXPECT_DOUBLE_EQ(cluster.metrics().total_power_watts(), 127.0);
  cluster.load_jobs({cheap_job(1, 0.0)});
  cluster.run();
  EXPECT_EQ(cluster.metrics().jobs_completed(), 1u);
}

TEST(HeterogeneousCluster, ConstructionValidation) {
  sim::ClusterConfig cfg;
  cfg.num_servers = 3;
  sim::RoundRobinAllocator alloc;
  sim::AlwaysOnPolicy power;
  // Wrong count.
  std::vector<sim::ServerConfig> two(2, cfg.server);
  EXPECT_THROW(sim::Cluster(cfg, two, alloc, power), std::invalid_argument);
  // Mismatched resource dimensionality.
  std::vector<sim::ServerConfig> three(3, cfg.server);
  three[1].num_resources = 2;
  EXPECT_THROW(sim::Cluster(cfg, three, alloc, power), std::invalid_argument);
}

TEST(HeterogeneousCluster, FasterTransitionServerWakesSooner) {
  sim::ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.server.start_asleep = true;
  std::vector<sim::ServerConfig> per_server(2, cfg.server);
  per_server[1].t_on = 5.0;  // fast-wake machine

  sim::RoundRobinAllocator alloc;
  sim::AlwaysOnPolicy power;
  sim::Cluster cluster(cfg, per_server, alloc, power);
  cluster.load_jobs({cheap_job(1, 0.0, 10.0), cheap_job(2, 0.0, 10.0)});
  cluster.run();
  const auto& records = cluster.metrics().job_records();
  ASSERT_EQ(records.size(), 2u);
  // Job on server 1 (fast wake) finishes at 15; on server 0 at 40.
  double fast_finish = 0.0, slow_finish = 0.0;
  for (const auto& r : records) (r.server == 1 ? fast_finish : slow_finish) = r.finish;
  EXPECT_DOUBLE_EQ(fast_finish, 15.0);
  EXPECT_DOUBLE_EQ(slow_finish, 40.0);
}

TEST(LatencyPercentile, MatchesKnownDistribution) {
  sim::ClusterMetrics m(1);
  for (int i = 1; i <= 100; ++i) {
    m.on_arrival(sim::Job{.id = i, .arrival = 0.0, .duration = 1.0,
                          .demand = sim::ResourceVector{0.1}},
                 0.0);
  }
  for (int i = 1; i <= 100; ++i) {
    sim::JobRecord r;
    r.id = i;
    r.arrival = 0.0;
    r.start = 0.0;
    r.finish = static_cast<double>(i);  // latencies 1..100
    m.on_completion(r, r.finish);
  }
  EXPECT_NEAR(m.latency_percentile(0.5), 50.0, 1.0);
  EXPECT_NEAR(m.latency_percentile(0.95), 95.0, 1.0);
  EXPECT_DOUBLE_EQ(m.latency_percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(m.latency_percentile(1.0), 100.0);
  EXPECT_THROW(m.latency_percentile(1.5), std::invalid_argument);
}

TEST(LatencyPercentile, RequiresRecords) {
  sim::ClusterMetrics no_records(1, false);
  sim::JobRecord r;
  r.finish = 1.0;
  no_records.on_completion(r, 1.0);
  EXPECT_THROW(no_records.latency_percentile(0.5), std::logic_error);
  sim::ClusterMetrics empty(1, true);
  EXPECT_THROW(empty.latency_percentile(0.5), std::logic_error);
}

}  // namespace
}  // namespace hcrl
