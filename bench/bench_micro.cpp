// Micro-benchmarks (google-benchmark) supporting the paper's §V-B claim
// that the global tier's online complexity is low: one decision costs K
// autoencoder encodes + K Sub-Q forwards, i.e. microseconds per job arrival.
#include <benchmark/benchmark.h>

#include "src/core/predictor.hpp"
#include "src/core/qnetwork.hpp"
#include "src/core/state.hpp"
#include "src/nn/init.hpp"
#include "src/nn/lstm.hpp"
#include "src/rl/smdp.hpp"
#include "src/rl/tabular_q.hpp"
#include "src/sim/cluster.hpp"
#include "src/telemetry/registry.hpp"
#include "src/workload/generator.hpp"

namespace {
using namespace hcrl;

void BM_MatrixVectorMultiply(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  nn::Matrix m(n, n, 0.5);
  nn::Vec x(n, 1.0), y;
  for (auto _ : state) {
    m.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_MatrixVectorMultiply)->Arg(32)->Arg(128)->Arg(512);

// Single-sample loop vs one GEMM over the stacked batch: the core of the
// batched NN path. Items processed = multiply-accumulates, so the two
// counters are directly comparable.
void BM_MatrixVectorLoop_vs_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  common::Rng rng(3);
  nn::Matrix w(n, n);
  for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] = rng.uniform(-1.0, 1.0);
  nn::Vec x(n, 0.5), y;
  for (auto _ : state) {
    for (std::size_t b = 0; b < batch; ++b) {
      w.multiply(x, y);
      benchmark::DoNotOptimize(y.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch * n * n));
}
BENCHMARK(BM_MatrixVectorLoop_vs_Gemm)->Args({128, 32})->Args({512, 32});

void BM_GemmBatched(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  common::Rng rng(3);
  nn::Matrix w(n, n);
  for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] = rng.uniform(-1.0, 1.0);
  nn::Matrix X(batch, n, 0.5), Y;
  for (auto _ : state) {
    nn::gemm_nt(X, w, Y);  // Y = X W^T: the batched Dense forward kernel
    benchmark::DoNotOptimize(Y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch * n * n));
}
BENCHMARK(BM_GemmBatched)->Args({128, 32})->Args({512, 32});

// The precision x GEMM-thread grid of the f32 compute mode: the batched
// Dense forward kernel at float/double and 1/N intra-GEMM workers. Items
// processed = multiply-accumulates, directly comparable across all cells.
template <class S>
void run_gemm_grid(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  const auto threads = static_cast<std::size_t>(state.range(2));
  common::Rng rng(3);
  nn::MatrixT<S> w(n, n);
  for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] = static_cast<S>(rng.uniform(-1.0, 1.0));
  nn::MatrixT<S> X(batch, n, S(0.5)), Y;
  nn::set_gemm_threads(threads);
  for (auto _ : state) {
    nn::gemm_nt(X, w, Y);
    benchmark::DoNotOptimize(Y.data());
  }
  nn::set_gemm_threads(1);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch * n * n));
}
void BM_GemmF64(benchmark::State& state) { run_gemm_grid<double>(state); }
BENCHMARK(BM_GemmF64)->Args({512, 32, 1})->Args({512, 32, 2})->Args({512, 512, 1})
    ->Args({512, 512, 2})->Args({512, 512, 4})->UseRealTime();
void BM_GemmF32(benchmark::State& state) { run_gemm_grid<float>(state); }
BENCHMARK(BM_GemmF32)->Args({512, 32, 1})->Args({512, 32, 2})->Args({512, 512, 1})
    ->Args({512, 512, 2})->Args({512, 512, 4})->UseRealTime();

// One global-tier DQN gradient step (GroupedQNetwork::train_batch) on a
// 32-transition minibatch at the paper's M=30, K=3 shape. The step runs its
// bootstrap targets partly on the `dqn-bootstrap` helper thread, so the
// cells report wall-clock time.
void run_grouped_q_train_step(benchmark::State& state, nn::Precision precision) {
  common::Rng rng(11);
  core::GroupedQOptions o;
  o.encoder.num_servers = 30;
  o.encoder.num_groups = 3;
  o.precision = precision;
  core::GroupedQNetwork net(o, rng);
  common::Rng data(12);
  std::vector<rl::Transition> transitions(32);
  for (auto& t : transitions) {
    t.state.resize(o.encoder.full_state_dim());
    t.next_state.resize(o.encoder.full_state_dim());
    for (auto& v : t.state) v = data.uniform();
    for (auto& v : t.next_state) v = data.uniform();
    t.action = static_cast<std::size_t>(data.uniform_int(0, 29));
    t.reward_rate = -1.0;
    t.tau = 1.0;
  }
  std::vector<const rl::Transition*> batch;
  for (const auto& t : transitions) batch.push_back(&t);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.train_batch(batch, 0.05));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}

void BM_GroupedQTrainStep(benchmark::State& state) {
  run_grouped_q_train_step(state, nn::Precision::kF64);
}
BENCHMARK(BM_GroupedQTrainStep)->UseRealTime();

void BM_GroupedQTrainStepF32(benchmark::State& state) {
  run_grouped_q_train_step(state, nn::Precision::kF32);
}
BENCHMARK(BM_GroupedQTrainStepF32)->UseRealTime();

// Batched LSTM sweep vs running the same windows one at a time — the
// predictor's multi-window prediction path.
void BM_LstmWindowSweep(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const std::size_t lookback = 35, hidden = 30;  // paper's predictor shape
  common::Rng rng(4);
  auto params = std::make_shared<nn::LstmParams>(hidden, 1);
  nn::init_lstm(*params, rng);
  nn::Lstm lstm(params);
  std::vector<nn::Matrix> xs;
  for (std::size_t t = 0; t < lookback; ++t) {
    nn::Matrix x(batch, 1);
    for (std::size_t b = 0; b < batch; ++b) x(b, 0) = rng.uniform();
    xs.push_back(x);
  }
  for (auto _ : state) {
    if (batch == 1) {
      // per-sample: each window walked separately
      for (std::size_t w = 0; w < 8; ++w) {
        lstm.reset();
        for (const auto& x : xs) benchmark::DoNotOptimize(lstm.step({x(0, 0)}).data());
      }
    } else {
      lstm.reset_batch(batch);
      for (const auto& x : xs) benchmark::DoNotOptimize(lstm.step_batch(x).data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lookback * (batch == 1 ? 8 : batch)));
}
BENCHMARK(BM_LstmWindowSweep)->Arg(1)->Arg(8);

// Precision x GEMM-thread grid on the batched LSTM sweep (the predictor's
// multi-window path): `batch` windows through the stacked-gate GEMMs, on
// the inference path (keep_cache=false) that predict_windows actually runs.
template <class S>
void run_lstm_sweep_grid(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const std::size_t lookback = 35, hidden = 30;  // paper's predictor shape
  common::Rng rng(4);
  auto params = std::make_shared<nn::LstmParamsT<S>>(hidden, 1);
  nn::init_lstm(*params, rng);
  nn::LstmT<S> lstm(params);
  std::vector<nn::MatrixT<S>> xs;
  for (std::size_t t = 0; t < lookback; ++t) {
    nn::MatrixT<S> x(batch, 1);
    for (std::size_t b = 0; b < batch; ++b) x(b, 0) = static_cast<S>(rng.uniform());
    xs.push_back(x);
  }
  nn::set_gemm_threads(threads);
  for (auto _ : state) {
    lstm.reset_batch(batch);
    for (const auto& x : xs) {
      benchmark::DoNotOptimize(lstm.step_batch(x, /*keep_cache=*/false).data());
    }
  }
  nn::set_gemm_threads(1);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lookback * batch));
}
void BM_LstmSweepF64(benchmark::State& state) { run_lstm_sweep_grid<double>(state); }
BENCHMARK(BM_LstmSweepF64)->Args({8, 1})->Args({32, 1})->Args({32, 2})->UseRealTime();
void BM_LstmSweepF32(benchmark::State& state) { run_lstm_sweep_grid<float>(state); }
BENCHMARK(BM_LstmSweepF32)->Args({8, 1})->Args({32, 1})->Args({32, 2})->UseRealTime();

void BM_GroupedQInference(benchmark::State& state) {
  common::Rng rng(1);
  core::GroupedQOptions o;
  o.encoder.num_servers = static_cast<std::size_t>(state.range(0));
  o.encoder.num_groups = o.encoder.num_servers % 3 == 0 ? 3 : 2;
  core::GroupedQNetwork net(o, rng);
  nn::Vec s(o.encoder.full_state_dim());
  for (auto& v : s) v = rng.uniform();
  for (auto _ : state) {
    auto q = net.q_values(s);
    benchmark::DoNotOptimize(q.data());
  }
}
BENCHMARK(BM_GroupedQInference)->Arg(30)->Arg(40)->Arg(60);

// Decision-epoch batching (core::DecisionService): B staged placement
// decisions resolved by ONE q_values_batch fusion (B*K rows per GEMM sweep)
// vs B per-call q_values walks (2 sweeps of K rows each). Items processed =
// decisions, so every cell reads directly as decisions/sec; the acceptance
// gate is batched(B>=16) >= 2x per-call at equal precision.
void run_grouped_q_decisions(benchmark::State& state, nn::Precision precision, bool batched) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  common::Rng rng(1);
  core::GroupedQOptions o;
  o.encoder.num_servers = 30;  // paper's M=30 cluster, K=3 groups
  o.encoder.num_groups = 3;
  o.precision = precision;
  core::GroupedQNetwork net(o, rng);
  std::vector<nn::Vec> states;
  for (std::size_t b = 0; b < batch; ++b) {
    nn::Vec s(o.encoder.full_state_dim());
    for (auto& v : s) v = rng.uniform();
    states.push_back(std::move(s));
  }
  std::vector<const nn::Vec*> ptrs;
  for (const auto& s : states) ptrs.push_back(&s);
  nn::Matrix out;
  for (auto _ : state) {
    if (batched) {
      net.q_values_batch(ptrs, out);
      benchmark::DoNotOptimize(out.data());
    } else {
      for (const nn::Vec* s : ptrs) {
        auto q = net.q_values(*s);
        benchmark::DoNotOptimize(q.data());
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
void BM_GroupedQDecisionsPerCall(benchmark::State& state) {
  run_grouped_q_decisions(state, nn::Precision::kF64, false);
}
BENCHMARK(BM_GroupedQDecisionsPerCall)->Arg(16)->Arg(64);
void BM_GroupedQDecisionsBatched(benchmark::State& state) {
  run_grouped_q_decisions(state, nn::Precision::kF64, true);
}
BENCHMARK(BM_GroupedQDecisionsBatched)->Arg(16)->Arg(64);
void BM_GroupedQDecisionsPerCallF32(benchmark::State& state) {
  run_grouped_q_decisions(state, nn::Precision::kF32, false);
}
BENCHMARK(BM_GroupedQDecisionsPerCallF32)->Arg(16)->Arg(64);
void BM_GroupedQDecisionsBatchedF32(benchmark::State& state) {
  run_grouped_q_decisions(state, nn::Precision::kF32, true);
}
BENCHMARK(BM_GroupedQDecisionsBatchedF32)->Arg(16)->Arg(64);

// The local tier's side of the decision epoch: B staged predictor queries
// against one warmed LSTM through predict_n (ONE batch-B stacked-gate sweep)
// vs B predict() chains. Items processed = predictions (decisions/sec).
void run_predictor_decisions(benchmark::State& state, bool batched) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  core::LstmPredictorOptions o;  // paper shape: 35-step lookback, 30 units
  o.train_interval = 1000000;    // inference cost only
  core::LstmPredictor predictor(o);
  common::Rng rng(5);
  for (int i = 0; i < 64; ++i) predictor.observe(60.0 + 500.0 * rng.uniform());
  for (auto _ : state) {
    if (batched) {
      benchmark::DoNotOptimize(predictor.predict_n(batch).data());
    } else {
      for (std::size_t b = 0; b < batch; ++b) benchmark::DoNotOptimize(predictor.predict());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
void BM_PredictorDecisionsPerCall(benchmark::State& state) {
  run_predictor_decisions(state, false);
}
BENCHMARK(BM_PredictorDecisionsPerCall)->Arg(16);
void BM_PredictorDecisionsBatched(benchmark::State& state) {
  run_predictor_decisions(state, true);
}
BENCHMARK(BM_PredictorDecisionsBatched)->Arg(16);

void BM_LstmStep(benchmark::State& state) {
  common::Rng rng(2);
  auto params = std::make_shared<nn::LstmParams>(30, 1);  // paper's 30 hidden units
  nn::init_lstm(*params, rng);
  nn::Lstm lstm(params);
  const nn::Vec x = {0.5};
  for (auto _ : state) {
    auto h = lstm.step(x);
    benchmark::DoNotOptimize(h.data());
    if (lstm.cached_steps() > 64) lstm.reset();
  }
}
BENCHMARK(BM_LstmStep);

void BM_SmdpUpdate(benchmark::State& state) {
  rl::TabularQAgent::Options o;
  rl::TabularQAgent agent(7, 5, o);
  std::size_t s = 0;
  for (auto _ : state) {
    agent.update(s, s % 5, -1.0, 10.0, (s + 1) % 7);
    s = (s + 1) % 7;
  }
}
BENCHMARK(BM_SmdpUpdate);

void BM_SmdpTargetMath(benchmark::State& state) {
  double acc = 0.0;
  double tau = 0.1;
  for (auto _ : state) {
    acc += rl::smdp_target(-1.5, tau, 0.05, acc * 1e-9);
    tau += 1e-7;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_SmdpTargetMath);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  // End-to-end event processing rate of the cluster engine under the
  // round-robin baseline (no learning overhead).
  workload::GeneratorOptions g;
  g.num_jobs = 5000;
  g.horizon_s = 5000.0 * 6.4;
  const auto jobs = workload::GoogleTraceGenerator(g).generate();
  std::int64_t total_events = 0;
  for (auto _ : state) {
    sim::RoundRobinAllocator alloc;
    sim::AlwaysOnPolicy power;
    sim::ClusterConfig cfg;
    cfg.num_servers = 30;
    cfg.keep_job_records = false;
    sim::Cluster cluster(cfg, alloc, power);
    cluster.load_jobs(jobs);
    while (cluster.step()) ++total_events;
  }
  state.SetItemsProcessed(total_events);
}
BENCHMARK(BM_SimulatorEventThroughput)->Unit(benchmark::kMillisecond);

void BM_TelemetryCounter(benchmark::State& state) {
  // Cost of the telemetry::count hot helper, disabled (arg 0: the tax every
  // instrumentation site pays in a normal run — a relaxed load + branch) and
  // enabled (arg 1: relaxed fetch_add on the thread's slab).
  const bool on = state.range(0) != 0;
  telemetry::set_enabled(on);
  const telemetry::MetricId id = telemetry::global_registry().counter("bench.telemetry_counter");
  for (auto _ : state) {
    telemetry::count(id);
  }
  telemetry::set_enabled(false);
  telemetry::global_registry().reset();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TelemetryCounter)->Arg(0)->Arg(1);

void BM_TelemetryEventThroughput(benchmark::State& state) {
  // BM_SimulatorEventThroughput with full metric collection enabled: the
  // end-to-end telemetry overhead story (per-event counters on the step hot
  // path plus the flush instrumentation). Compare items/s against that cell.
  workload::GeneratorOptions g;
  g.num_jobs = 5000;
  g.horizon_s = 5000.0 * 6.4;
  const auto jobs = workload::GoogleTraceGenerator(g).generate();
  telemetry::set_enabled(true);
  std::int64_t total_events = 0;
  for (auto _ : state) {
    sim::RoundRobinAllocator alloc;
    sim::AlwaysOnPolicy power;
    sim::ClusterConfig cfg;
    cfg.num_servers = 30;
    cfg.keep_job_records = false;
    sim::Cluster cluster(cfg, alloc, power);
    cluster.load_jobs(jobs);
    while (cluster.step()) ++total_events;
  }
  telemetry::set_enabled(false);
  telemetry::global_registry().reset();
  state.SetItemsProcessed(total_events);
}
BENCHMARK(BM_TelemetryEventThroughput)->Unit(benchmark::kMillisecond);

void BM_StateEncoding(benchmark::State& state) {
  core::StateEncoderOptions o;
  o.num_servers = 30;
  o.num_groups = 3;
  core::StateEncoder enc(o);
  sim::RoundRobinAllocator alloc;
  sim::AlwaysOnPolicy power;
  sim::ClusterConfig cfg;
  cfg.num_servers = 30;
  sim::Cluster cluster(cfg, alloc, power);
  sim::Job job;
  job.id = 1;
  job.duration = 100.0;
  job.demand = sim::ResourceVector{0.1, 0.1, 0.01};
  for (auto _ : state) {
    auto s = enc.full_state(cluster, job);
    benchmark::DoNotOptimize(s.data());
  }
}
BENCHMARK(BM_StateEncoding);

}  // namespace

BENCHMARK_MAIN();
