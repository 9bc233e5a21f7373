#include "src/core/global_tier.hpp"

#include <gtest/gtest.h>

#include <exception>
#include <stdexcept>
#include <string>

#include "src/core/nonfinite.hpp"
#include "src/core/runner.hpp"
#include "src/core/scenario.hpp"
#include "src/sim/cluster.hpp"
#include "src/telemetry/registry.hpp"
#include "src/workload/generator.hpp"

namespace hcrl::core {
namespace {

DrlAllocatorOptions small_opts() {
  DrlAllocatorOptions o;
  o.qnet.encoder.num_servers = 6;
  o.qnet.encoder.num_groups = 2;
  o.qnet.encoder.num_resources = 3;
  o.qnet.autoencoder_dims = {8, 4};
  o.qnet.subq_hidden = 16;
  o.min_replay_before_training = 32;
  o.batch_size = 8;
  o.replay_capacity = 1000;
  return o;
}

std::vector<sim::Job> small_trace(std::size_t n) {
  workload::GeneratorOptions g;
  g.num_jobs = n;
  g.horizon_s = static_cast<double>(n) * 8.0;
  g.seed = 5;
  return workload::GoogleTraceGenerator(g).generate();
}

TEST(DrlAllocatorOptions, Validation) {
  EXPECT_NO_THROW(small_opts().validate());
  auto o = small_opts();
  o.beta = 0.0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = small_opts();
  o.w_power = -1.0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = small_opts();
  o.train_interval = 0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
}

TEST(DrlAllocator, SelectsValidServersAndCountsEpochs) {
  DrlAllocator alloc(small_opts());
  sim::AlwaysOnPolicy power;
  sim::ClusterConfig cfg;
  cfg.num_servers = 6;
  sim::Cluster cluster(cfg, alloc, power);
  cluster.load_jobs(small_trace(200));
  cluster.run();
  EXPECT_EQ(alloc.decision_epochs(), 200);
  EXPECT_EQ(cluster.metrics().jobs_completed(), 200u);
}

TEST(DrlAllocator, TrainsOnceReplayWarm) {
  DrlAllocator alloc(small_opts());
  sim::ImmediateSleepPolicy power;
  sim::ClusterConfig cfg;
  cfg.num_servers = 6;
  sim::Cluster cluster(cfg, alloc, power);
  cluster.load_jobs(small_trace(400));
  cluster.run();
  EXPECT_GT(alloc.train_steps(), 10);
  EXPECT_GE(alloc.last_loss(), 0.0);
}

TEST(DrlAllocator, LearningOffFreezesAndActsGreedily) {
  DrlAllocator alloc(small_opts());
  alloc.set_learning(false);
  sim::AlwaysOnPolicy power;
  sim::ClusterConfig cfg;
  cfg.num_servers = 6;
  sim::Cluster cluster(cfg, alloc, power);
  cluster.load_jobs(small_trace(100));
  cluster.run();
  EXPECT_EQ(alloc.train_steps(), 0);
  EXPECT_EQ(alloc.decision_epochs(), 100);
}

TEST(DrlAllocator, EpsilonDecaysWithEpochs) {
  auto o = small_opts();
  o.epsilon = rl::EpsilonSchedule::linear(1.0, 0.0, 100);
  DrlAllocator alloc(o);
  EXPECT_DOUBLE_EQ(alloc.current_epsilon(), 1.0);
  sim::AlwaysOnPolicy power;
  sim::ClusterConfig cfg;
  cfg.num_servers = 6;
  sim::Cluster cluster(cfg, alloc, power);
  cluster.load_jobs(small_trace(150));
  cluster.run();
  EXPECT_DOUBLE_EQ(alloc.current_epsilon(), 0.0);
}

TEST(DrlAllocator, GuidePolicyIsConsultedDuringExploration) {
  class CountingGuide final : public sim::AllocationPolicy {
   public:
    sim::ServerId select_server(const sim::ClusterView&, const sim::Job&) override {
      ++calls;
      return 0;
    }
    std::string name() const override { return "counting"; }
    int calls = 0;
  };
  auto o = small_opts();
  o.epsilon = rl::EpsilonSchedule::constant(1.0);  // always explore
  o.guide_mix = 1.0;                               // always via guide
  DrlAllocator alloc(o);
  auto guide = std::make_unique<CountingGuide>();
  CountingGuide* guide_view = guide.get();
  alloc.set_guide(std::move(guide));
  sim::AlwaysOnPolicy power;
  sim::ClusterConfig cfg;
  cfg.num_servers = 6;
  sim::Cluster cluster(cfg, alloc, power);
  cluster.load_jobs(small_trace(50));
  cluster.run();
  EXPECT_EQ(guide_view->calls, 50);
}

TEST(DrlAllocator, EndEpisodeResetsSojourn) {
  DrlAllocator alloc(small_opts());
  sim::AlwaysOnPolicy power;
  sim::ClusterConfig cfg;
  cfg.num_servers = 6;
  {
    sim::Cluster cluster(cfg, alloc, power);
    cluster.load_jobs(small_trace(50));
    cluster.run();  // on_simulation_end -> end_episode
  }
  // A second, independent simulation must not throw (no stale transition
  // spanning the two runs, whose metric integrals would go backwards).
  sim::Cluster cluster2(cfg, alloc, power);
  cluster2.load_jobs(small_trace(50));
  EXPECT_NO_THROW(cluster2.run());
}

TEST(DrlAllocator, RewardPrefersLowPowerTrajectories) {
  // Structural check on the reward computation: with only the power term
  // active, the reward rate over any sojourn is -w_power * average power,
  // which is strictly worse (more negative) when more servers are awake.
  auto o = small_opts();
  o.w_vms = 0.0;
  o.w_reliability = 0.0;
  o.w_chosen_queue = 0.0;
  DrlAllocator alloc(o);
  sim::AlwaysOnPolicy power;
  sim::ClusterConfig cfg;
  cfg.num_servers = 6;
  cfg.server.start_asleep = false;  // 6 idle servers burn 6*87 W
  sim::Cluster cluster(cfg, alloc, power);
  cluster.load_jobs(small_trace(100));
  cluster.run();
  // All transitions stored in replay have reward_rate <= -w_power * 6 * 87
  // * (some fraction): at minimum strictly negative.
  EXPECT_GT(alloc.train_steps(), 0);
  EXPECT_GE(alloc.last_loss(), 0.0);
}

TEST(DrlAllocator, DivergingDqnFailsItsCellLoudly) {
  // Same cell twice in one batch; only the one whose DQN learning rate
  // diverges may fail, and it must fail with the named error rather than
  // produce a result.
  const Scenario healthy = ScenarioRegistry::builtin().make("tiny/drl-only", 600);
  Scenario diverging = healthy;
  diverging.name += "/diverging";
  diverging.config.drl.qnet.learning_rate = 1e300;
  // With telemetry on, the guard that trips also counts on global.nonfinite.
  const auto nonfinite = [] {
    const telemetry::RegistrySnapshot snap = telemetry::global_registry().snapshot();
    const telemetry::MetricValue* v = snap.find("global.nonfinite");
    return v ? v->count : 0;
  };
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(true);
  const std::uint64_t before = nonfinite();
  const std::vector<ScenarioOutcome> out = SerialRunner().run_outcomes({diverging, healthy});
  const std::uint64_t after = nonfinite();
  telemetry::set_enabled(was_enabled);
  EXPECT_GE(after - before, 1u);
  ASSERT_EQ(out.size(), 2u);
  ASSERT_FALSE(out[0].ok());
  try {
    std::rethrow_exception(out[0].error);
  } catch (const NonFiniteError& e) {
    // The first guard to see the diverged weights is the next decision's
    // Q-row (or, after a target sync, the step's bootstrap targets).
    const std::string what = e.what();
    EXPECT_TRUE(what.find("DrlAllocator: Q-value") != std::string::npos ||
                what.find("GroupedQNetwork") != std::string::npos)
        << what;
  }
  EXPECT_TRUE(out[1].ok());
}

}  // namespace
}  // namespace hcrl::core
