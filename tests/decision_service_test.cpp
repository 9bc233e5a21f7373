// The decision-epoch batching service and its bit-identity contract: staged
// predictor/Q requests fuse into batched sweeps whose results — and every
// downstream action, metric and learned parameter — are bit-identical to the
// per-call path. Covers the DecisionService unit behaviour (empty / single /
// mixed epochs), the q_values_batch fusion kernel at both precisions, the
// WindowPredictor, and full-experiment parity between batch_decisions on and
// off.
#include "src/core/decision_service.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/core/local_tier.hpp"
#include "src/core/predictor.hpp"
#include "src/core/qnetwork.hpp"
#include "src/core/runner.hpp"
#include "src/core/scenario.hpp"
#include "src/core/trace_source.hpp"
#include "src/sim/cluster.hpp"

namespace hcrl::core {
namespace {

// ---- test doubles ----------------------------------------------------------

/// Predictor stub: predict() returns `base`, predict_n(n) returns
/// base, base+1, ... so tests can see exactly how requests were grouped and
/// scattered. Records every batch size it was asked for.
class ProbePredictor final : public WorkloadPredictor {
 public:
  explicit ProbePredictor(double base) : base_(base) {}
  void observe(double) override {}
  double predict() override { return base_; }
  std::vector<double> predict_n(std::size_t n) override {
    batches.push_back(n);
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = base_ + static_cast<double>(i);
    return out;
  }
  std::string name() const override { return "probe"; }

  std::vector<std::size_t> batches;

 private:
  double base_;
};

GroupedQOptions small_qopts(nn::Precision precision = nn::Precision::kF64) {
  GroupedQOptions o;
  o.encoder.num_servers = 6;
  o.encoder.num_groups = 2;
  o.encoder.num_resources = 2;
  o.autoencoder_dims = {8, 4};
  o.subq_hidden = 16;
  o.precision = precision;
  return o;
}

nn::Vec random_state(std::size_t dim, common::Rng& rng) {
  nn::Vec s(dim);
  for (auto& v : s) v = rng.uniform();
  return s;
}

// ---- WindowPredictor (satellite: O(1) rolling-sum predictor) ---------------

TEST(WindowPredictor, RoundsWindowUpToPowerOfTwoAndStartsAtPrior) {
  WindowPredictor p(/*window=*/5, /*prior_s=*/100.0);
  EXPECT_EQ(p.window(), 8u);  // 5 -> 8
  EXPECT_DOUBLE_EQ(p.predict(), 100.0);
  EXPECT_EQ(p.name(), "window");
}

TEST(WindowPredictor, BlendsPriorOutSampleBySample) {
  WindowPredictor p(/*window=*/4, /*prior_s=*/40.0);
  p.observe(80.0);
  // Ring now holds {80, 40, 40, 40}.
  EXPECT_DOUBLE_EQ(p.predict(), (80.0 + 3 * 40.0) / 4.0);
}

TEST(WindowPredictor, MatchesBruteForceMeanOfLastWindow) {
  const std::size_t window = 8;
  WindowPredictor p(window, /*prior_s=*/10.0);
  common::Rng rng(99);
  std::vector<double> seen;
  for (int i = 0; i < 100; ++i) {
    const double v = rng.uniform() * 500.0;
    p.observe(v);
    seen.push_back(v);
    if (seen.size() >= window) {
      double sum = 0.0;
      for (std::size_t j = seen.size() - window; j < seen.size(); ++j) sum += seen[j];
      EXPECT_NEAR(p.predict(), sum / static_cast<double>(window), 1e-9);
    }
  }
}

TEST(WindowPredictor, Validation) {
  EXPECT_THROW(WindowPredictor(0, 10.0), std::invalid_argument);
  EXPECT_THROW(WindowPredictor(4, 0.0), std::invalid_argument);
  WindowPredictor p(4, 10.0);
  EXPECT_THROW(p.observe(-1.0), std::invalid_argument);
}

TEST(WindowPredictor, FactoryBuildsItFromLookback) {
  LstmPredictorOptions opts;
  opts.lookback = 5;
  opts.prior_s = 33.0;
  const auto p = make_predictor("window", opts);
  EXPECT_EQ(p->name(), "window");
  EXPECT_DOUBLE_EQ(p->predict(), 33.0);
}

// ---- DecisionService unit behaviour ----------------------------------------

TEST(DecisionService, EmptyFlushIsANoOp) {
  DecisionService svc;
  EXPECT_FALSE(svc.pending());
  svc.flush();
  svc.flush();
  EXPECT_EQ(svc.stats().flushes, 0u);
  EXPECT_EQ(svc.stats().predict_batches, 0u);
  EXPECT_EQ(svc.stats().q_batches, 0u);
}

TEST(DecisionService, SinglePredictRequestRoundTrips) {
  DecisionService svc;
  ProbePredictor p(7.0);
  const auto t = svc.stage_predict(p);
  EXPECT_TRUE(svc.pending());
  svc.flush();
  EXPECT_FALSE(svc.pending());
  EXPECT_DOUBLE_EQ(svc.prediction(t), 7.0);
  ASSERT_EQ(p.batches.size(), 1u);
  EXPECT_EQ(p.batches[0], 1u);
  EXPECT_EQ(svc.stats().flushes, 1u);
  EXPECT_EQ(svc.stats().predict_requests, 1u);
  EXPECT_EQ(svc.stats().predict_batches, 1u);
}

TEST(DecisionService, FusesRequestsPerPredictorPreservingOrder) {
  DecisionService svc;
  ProbePredictor a(100.0), b(200.0);
  // Interleaved staging: a, b, a, a, b.
  const auto ta0 = svc.stage_predict(a);
  const auto tb0 = svc.stage_predict(b);
  const auto ta1 = svc.stage_predict(a);
  const auto ta2 = svc.stage_predict(a);
  const auto tb1 = svc.stage_predict(b);
  svc.flush();
  // One predict_n per predictor instance, sized to its request count.
  ASSERT_EQ(a.batches.size(), 1u);
  EXPECT_EQ(a.batches[0], 3u);
  ASSERT_EQ(b.batches.size(), 1u);
  EXPECT_EQ(b.batches[0], 2u);
  // Scatter in request order within each group.
  EXPECT_DOUBLE_EQ(svc.prediction(ta0), 100.0);
  EXPECT_DOUBLE_EQ(svc.prediction(ta1), 101.0);
  EXPECT_DOUBLE_EQ(svc.prediction(ta2), 102.0);
  EXPECT_DOUBLE_EQ(svc.prediction(tb0), 200.0);
  EXPECT_DOUBLE_EQ(svc.prediction(tb1), 201.0);
  EXPECT_EQ(svc.stats().predict_batches, 2u);
  EXPECT_EQ(svc.stats().max_epoch_requests, 5u);
}

TEST(DecisionService, MixedEpochServesPredictionsAndQValues) {
  DecisionService svc;
  ProbePredictor p(5.0);
  common::Rng rng(1);
  const auto qopts = small_qopts();
  GroupedQNetwork net(qopts, rng);
  common::Rng srng(2);
  const nn::Vec s0 = random_state(qopts.encoder.full_state_dim(), srng);
  const nn::Vec s1 = random_state(qopts.encoder.full_state_dim(), srng);

  const auto tp = svc.stage_predict(p);
  const auto tq0 = svc.stage_q_values(net, s0);
  const auto tq1 = svc.stage_q_values(net, s1);
  svc.flush();

  EXPECT_DOUBLE_EQ(svc.prediction(tp), 5.0);
  const nn::Vec q0 = net.q_values(s0);
  const nn::Vec q1 = net.q_values(s1);
  const auto r0 = svc.q_values(tq0);
  const auto r1 = svc.q_values(tq1);
  ASSERT_EQ(r0.size(), q0.size());
  for (std::size_t i = 0; i < q0.size(); ++i) EXPECT_EQ(r0[i], q0[i]);
  for (std::size_t i = 0; i < q1.size(); ++i) EXPECT_EQ(r1[i], q1[i]);
  EXPECT_EQ(svc.stats().q_requests, 2u);
  EXPECT_EQ(svc.stats().q_batches, 1u);  // ONE fused GEMM sweep for both
}

TEST(DecisionService, NewEpochInvalidatesOldResultsUntilFlushed) {
  DecisionService svc;
  ProbePredictor p(1.0);
  const auto t0 = svc.stage_predict(p);
  EXPECT_THROW(svc.prediction(t0), std::logic_error);  // not flushed yet
  svc.flush();
  EXPECT_DOUBLE_EQ(svc.prediction(t0), 1.0);
  const auto t1 = svc.stage_predict(p);  // starts the next epoch
  EXPECT_THROW(svc.prediction(t1), std::logic_error);
  svc.flush();
  EXPECT_DOUBLE_EQ(svc.prediction(t1), 1.0);
  EXPECT_THROW(svc.prediction(t1 + 1), std::out_of_range);
}

TEST(DecisionService, RejectsTwoNetworksInOneEpoch) {
  DecisionService svc;
  common::Rng rng(1);
  GroupedQNetwork net_a(small_qopts(), rng);
  GroupedQNetwork net_b(small_qopts(), rng);
  const nn::Vec s = random_state(net_a.state_dim(), rng);
  svc.stage_q_values(net_a, s);
  EXPECT_THROW(svc.stage_q_values(net_b, s), std::logic_error);
}

// ---- batched forward kernels: exact parity with the per-call path ----------

TEST(GroupedQNetwork, QValuesBatchBitIdenticalToPerCallBothPrecisions) {
  for (const nn::Precision precision : {nn::Precision::kF64, nn::Precision::kF32}) {
    common::Rng rng(11);
    const auto qopts = small_qopts(precision);
    GroupedQNetwork net(qopts, rng);

    common::Rng srng(12);
    std::vector<nn::Vec> states;
    for (int i = 0; i < 16; ++i) states.push_back(random_state(net.state_dim(), srng));
    std::vector<const nn::Vec*> ptrs;
    for (const auto& s : states) ptrs.push_back(&s);

    nn::Matrix batched;
    net.q_values_batch(ptrs, batched);
    ASSERT_EQ(batched.rows(), 16u);
    ASSERT_EQ(batched.cols(), net.num_actions());
    for (std::size_t b = 0; b < states.size(); ++b) {
      const nn::Vec per_call = net.q_values(states[b]);
      for (std::size_t a = 0; a < per_call.size(); ++a) {
        EXPECT_EQ(batched(b, a), per_call[a])
            << "precision=" << nn::to_string(precision) << " b=" << b << " a=" << a;
      }
    }
  }
}

TEST(LstmPredictor, PredictNBitIdenticalToPredict) {
  LstmPredictorOptions opts;
  opts.lookback = 6;
  opts.hidden_units = 5;
  opts.train_interval = 4;
  LstmPredictor p(opts);
  // Before warm-up: prior fan-out.
  const auto cold = p.predict_n(3);
  for (const double v : cold) EXPECT_DOUBLE_EQ(v, opts.prior_s);
  common::Rng rng(5);
  for (int i = 0; i < 40; ++i) p.observe(60.0 + 500.0 * rng.uniform());
  const double one = p.predict();
  const auto many = p.predict_n(4);
  ASSERT_EQ(many.size(), 4u);
  for (const double v : many) EXPECT_EQ(v, one);
  EXPECT_TRUE(p.predict_n(0).empty());
}

// ---- in-sim parity: batched decision epochs vs inline decisions ------------

workload::GeneratorOptions tiny_trace(std::size_t jobs) {
  workload::GeneratorOptions o;
  o.num_jobs = jobs;
  o.horizon_s = static_cast<double>(jobs) * 6.4;
  o.seed = 21;
  return o;
}

LocalPowerManagerOptions local_opts(std::size_t num_servers, const std::string& predictor) {
  LocalPowerManagerOptions o;
  o.num_servers = num_servers;
  o.predictor = predictor;
  o.lstm.lookback = 6;
  o.lstm.hidden_units = 5;
  o.lstm.train_interval = 8;
  return o;
}

/// Drive one Cluster + RlPowerManager over the tiny trace, with or without a
/// DecisionService, and return (manager, metrics snapshot) observations.
struct LocalRunResult {
  std::vector<std::size_t> decisions;
  std::vector<double> q_table;  // shared table flattened
  double energy_joules = 0.0;
  double latency_s = 0.0;
  DecisionServiceStats stats;
};

LocalRunResult run_local_tier(const std::string& predictor, bool batched) {
  const std::size_t num_servers = 4;
  sim::ClusterConfig cc;
  cc.num_servers = num_servers;

  const auto opts = local_opts(num_servers, predictor);
  RlPowerManager manager(opts);
  DecisionService svc;
  if (batched) manager.set_decision_service(&svc);

  sim::RoundRobinAllocator alloc;
  sim::Cluster cluster(cc, alloc, manager);
  cluster.load_jobs(SyntheticTraceSource(tiny_trace(400)).produce().jobs);
  cluster.run();

  LocalRunResult r;
  for (std::size_t s = 0; s < num_servers; ++s) r.decisions.push_back(manager.decisions(s));
  const auto& agent = manager.agent(0);  // shared table
  for (std::size_t s = 0; s < opts.num_states(); ++s) {
    for (std::size_t a = 0; a < opts.timeout_actions.size(); ++a) {
      r.q_table.push_back(agent.q(s, a));
    }
  }
  const sim::Time end = cluster.now();
  r.energy_joules = cluster.metrics().energy_joules(end);
  r.latency_s = cluster.metrics().accumulated_latency(end);
  r.stats = svc.stats();
  return r;
}

TEST(DecisionEpochParity, LocalTierBitIdenticalWithWindowPredictor) {
  const LocalRunResult inline_run = run_local_tier("window", /*batched=*/false);
  const LocalRunResult batched_run = run_local_tier("window", /*batched=*/true);
  EXPECT_EQ(batched_run.decisions, inline_run.decisions);
  ASSERT_EQ(batched_run.q_table.size(), inline_run.q_table.size());
  for (std::size_t i = 0; i < inline_run.q_table.size(); ++i) {
    EXPECT_EQ(batched_run.q_table[i], inline_run.q_table[i]) << "q-table entry " << i;
  }
  EXPECT_EQ(batched_run.energy_joules, inline_run.energy_joules);
  EXPECT_EQ(batched_run.latency_s, inline_run.latency_s);
  // The batched run actually staged work through the service.
  EXPECT_GT(batched_run.stats.flushes, 0u);
  EXPECT_GT(batched_run.stats.predict_requests, 0u);
  EXPECT_EQ(inline_run.stats.flushes, 0u);
}

TEST(DecisionEpochParity, LocalTierBitIdenticalWithLstmPredictor) {
  const LocalRunResult inline_run = run_local_tier("lstm", /*batched=*/false);
  const LocalRunResult batched_run = run_local_tier("lstm", /*batched=*/true);
  EXPECT_EQ(batched_run.decisions, inline_run.decisions);
  for (std::size_t i = 0; i < inline_run.q_table.size(); ++i) {
    EXPECT_EQ(batched_run.q_table[i], inline_run.q_table[i]) << "q-table entry " << i;
  }
  EXPECT_EQ(batched_run.energy_joules, inline_run.energy_joules);
  EXPECT_EQ(batched_run.latency_s, inline_run.latency_s);
}

// ---- full-experiment parity (tiny registry, both precisions) ---------------

void expect_results_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.final_snapshot.now, b.final_snapshot.now);
  EXPECT_EQ(a.final_snapshot.jobs_completed, b.final_snapshot.jobs_completed);
  EXPECT_EQ(a.final_snapshot.energy_joules, b.final_snapshot.energy_joules);
  EXPECT_EQ(a.final_snapshot.accumulated_latency_s, b.final_snapshot.accumulated_latency_s);
  EXPECT_EQ(a.final_snapshot.average_power_watts, b.final_snapshot.average_power_watts);
  EXPECT_EQ(a.servers_on_at_end, b.servers_on_at_end);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].sim_time_s, b.series[i].sim_time_s);
    EXPECT_EQ(a.series[i].energy_kwh, b.series[i].energy_kwh);
    EXPECT_EQ(a.series[i].accumulated_latency_s, b.series[i].accumulated_latency_s);
  }
}

TEST(DecisionEpochParity, FullHierarchicalExperimentBothPrecisions) {
  for (const nn::Precision precision : {nn::Precision::kF64, nn::Precision::kF32}) {
    Scenario batched = ScenarioRegistry::builtin().make("tiny/hierarchical", 250);
    batched.config.precision = precision;
    batched.config.batch_decisions = true;
    Scenario inline_mode = batched;
    inline_mode.config.batch_decisions = false;

    const ExperimentResult rb = run_scenario(batched);
    const ExperimentResult ri = run_scenario(inline_mode);
    SCOPED_TRACE(std::string("precision=") + nn::to_string(precision));
    expect_results_identical(rb, ri);
  }
}

}  // namespace
}  // namespace hcrl::core
