// perfbench_cell: run one benchmark workload once and print one JSON line.
//
//   perfbench_cell --workload <paper-hier|drl-only|engine-faulty> --seed <n> [--traced]
//
// Every invocation first runs the whole cell through the public
// core::run_scenario() (tracing off; its wall time is `cell_wall_s`), then
// rebuilds the same cell from public pieces — TraceSource::produce,
// policy::build_system, DecisionService, sim::Cluster, FaultInjector — as a
// "replica" that times each phase. With --traced a second replica follows
// the first; it wraps both tiers in timing decorators (TimedAllocation /
// TimedPower below) and turns the telemetry registry on for the NN counters,
// so every layer is timed from outside; nothing in the library is changed or
// hooked. Every replica's final MetricsSnapshot must equal run_scenario()'s
// bit for bit (`parity`), so the per-layer numbers describe the same program
// as the end-to-end ones.
//
// run.py drives this binary, checks its outputs and aggregates the reps.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/log.hpp"
#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/core/decision_service.hpp"
#include "src/core/global_tier.hpp"
#include "src/core/local_tier.hpp"
#include "src/core/predictor.hpp"
#include "src/core/runner.hpp"
#include "src/core/scenario.hpp"
#include "src/nn/matrix.hpp"
#include "src/nn/precision.hpp"
#include "src/policy/registry.hpp"
#include "src/sim/cluster.hpp"
#include "src/sim/fault/fault.hpp"
#include "src/telemetry/registry.hpp"

namespace {

using namespace hcrl;
using Clock = std::chrono::steady_clock;

// Set-up probes per process: repeated until they took this long in total
// (at least kMinSetups, at most kMaxSetups). A DRL cell sets up in about
// 1.5 ms, so the budget, not the cap, sets the count there.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 500;
constexpr double kSetupBudgetS = 0.3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Cost of one Clock::now(), measured once at start-up. A call timed by the
// decorators below contains about one clock read, which call_seconds()
// subtracts so a layer's time is its own; the two reads per timed call are
// booked separately as the ledger's `timer_s`.
double g_clock_read_s = 0.0;

double measure_clock_read_s() {
  constexpr int kBatches = 5;
  constexpr int kReads = 20000;
  double best = 1.0;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kReads; ++i) (void)Clock::now();
    best = std::min(best, seconds_since(t0) / kReads);
  }
  return best;
}

double call_seconds(Clock::time_point t0) {
  return std::max(0.0, seconds_since(t0) - g_clock_read_s);
}

// ---- workloads --------------------------------------------------------------

struct Workload {
  const char* name;
  const char* registry;  // ScenarioRegistry::builtin() entry
  std::optional<core::SystemKind> system;  // overrides the entry's system
  std::size_t jobs;      // trace size; the entry pretrains on jobs / 4
};

// README.md says why each workload is here and what it should move.
const Workload kWorkloads[] = {
    {"paper-hier", "table1/m30/hierarchical", std::nullopt, 3000},
    {"drl-only", "table1/m30/drl-only", std::nullopt, 3000},
    // The registry's faulty knobs (mtbf 4 h, mttr 600 s, evict 6 h) on the
    // table1/m30 trace, with the non-learning least-loaded + immediate-sleep
    // pair so the event engine does most of the work.
    {"engine-faulty", "table1/m30/hierarchical-faulty", core::SystemKind::kLeastLoaded, 500000},
};

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

core::Scenario make_scenario(const Workload& w, std::uint64_t seed) {
  core::Scenario s = core::ScenarioRegistry::builtin().make(w.registry, w.jobs);
  s.name = std::string("perfbench/") + w.name;
  if (w.system) s.config.system = *w.system;
  // Pinned rather than inherited from HCRL_PRECISION / HCRL_GEMM_THREADS.
  s.config.precision = nn::Precision::kF64;
  s.config.gemm_threads = 1;
  s.seed = seed;  // re-derives the trace, agent and fault seeds
  return s;
}

// ---- timing decorators ------------------------------------------------------

/// Per-phase global-tier ledger.
struct GlobalLedger {
  double select_s = 0.0;
  double train_s = 0.0;  // select_server calls during which train_steps() advanced
  double act_s = 0.0;    // the other select_server calls
  double end_s = 0.0;    // on_simulation_end
  std::uint64_t timed_calls = 0;
  std::int64_t train_steps = 0;
  std::vector<double> call_us;  // every select_server duration, in order
};

/// Per-phase local-tier ledger.
struct LocalLedger {
  double arrival_s = 0.0;
  double train_s = 0.0;    // on_arrival calls that ran an LSTM train_round
  double observe_s = 0.0;  // the other on_arrival calls
  double decide_s = 0.0;   // on_idle + defer_idle + flush_decisions
  std::uint64_t train_rounds = 0;
  std::uint64_t decisions = 0;  // idle decisions taken inline or staged
  std::uint64_t timed_calls = 0;
};

class TimedAllocation final : public sim::AllocationPolicy {
 public:
  TimedAllocation(sim::AllocationPolicy& inner, const core::DrlAllocator* drl)
      : inner_(inner), drl_(drl) {}

  sim::ServerId select_server(const sim::ClusterView& cluster, const sim::Job& job) override {
    const std::int64_t steps0 = drl_ != nullptr ? drl_->train_steps() : 0;
    const auto t0 = Clock::now();
    const sim::ServerId id = inner_.select_server(cluster, job);
    const double dt = call_seconds(t0);
    const std::int64_t steps = (drl_ != nullptr ? drl_->train_steps() : 0) - steps0;
    ledger.select_s += dt;
    (steps > 0 ? ledger.train_s : ledger.act_s) += dt;
    ledger.train_steps += steps;
    ++ledger.timed_calls;
    ledger.call_us.push_back(dt * 1e6);
    return id;
  }
  void on_simulation_end(const sim::ClusterView& cluster, sim::Time now) override {
    const auto t0 = Clock::now();
    inner_.on_simulation_end(cluster, now);
    ledger.end_s += call_seconds(t0);
    ++ledger.timed_calls;
  }
  RoutingMode routing_mode() const override { return inner_.routing_mode(); }
  std::string name() const override { return inner_.name(); }

  GlobalLedger ledger;

 private:
  sim::AllocationPolicy& inner_;
  const core::DrlAllocator* drl_;
};

class TimedPower final : public sim::PowerPolicy {
 public:
  TimedPower(sim::PowerPolicy& inner, core::RlPowerManager* rl, std::size_t num_servers)
      : inner_(inner) {
    if (rl == nullptr) return;
    lstm_.resize(num_servers, nullptr);
    for (std::size_t i = 0; i < num_servers; ++i) {
      lstm_[i] = dynamic_cast<const core::LstmPredictor*>(&rl->predictor(i));
    }
    lstm_opts_ = rl->options().lstm;
  }

  double on_idle(const sim::Server& server, sim::Time now) override {
    const auto t0 = Clock::now();
    const double timeout = inner_.on_idle(server, now);
    ledger.decide_s += call_seconds(t0);
    ++ledger.timed_calls;
    ++ledger.decisions;
    return timeout;
  }
  bool defer_idle(sim::Server& server, sim::Time now, sim::EventQueue& queue) override {
    const auto t0 = Clock::now();
    const bool staged = inner_.defer_idle(server, now, queue);
    ledger.decide_s += call_seconds(t0);
    ++ledger.timed_calls;
    if (staged) ++ledger.decisions;
    return staged;
  }
  bool has_staged_decisions() const override { return inner_.has_staged_decisions(); }
  void flush_decisions() override {
    const auto t0 = Clock::now();
    inner_.flush_decisions();
    ledger.decide_s += call_seconds(t0);
    ++ledger.timed_calls;
  }
  void on_arrival(const sim::Server& server, const sim::Job& job, sim::Time now) override {
    const core::LstmPredictor* lstm = server.id() < lstm_.size() ? lstm_[server.id()] : nullptr;
    const std::size_t obs0 = lstm != nullptr ? lstm->observations() : 0;
    const auto t0 = Clock::now();
    inner_.on_arrival(server, job, now);
    const double dt = call_seconds(t0);
    ledger.arrival_s += dt;
    ++ledger.timed_calls;
    if (lstm != nullptr && ran_train_round(obs0, lstm->observations())) {
      ledger.train_s += dt;
      ++ledger.train_rounds;
    } else {
      ledger.observe_s += dt;
    }
  }
  bool shard_parallel_safe() const override { return inner_.shard_parallel_safe(); }
  std::string name() const override { return inner_.name(); }

  LocalLedger ledger;

 private:
  /// LstmPredictor::observe trains when the observation count crosses a
  /// train_interval multiple and the (capped) history exceeds lookback + 1.
  bool ran_train_round(std::size_t before, std::size_t after) const {
    if (after == before || after % lstm_opts_.train_interval != 0) return false;
    return std::min(after, lstm_opts_.history_capacity) > lstm_opts_.lookback + 1;
  }

  sim::PowerPolicy& inner_;
  std::vector<const core::LstmPredictor*> lstm_;  // per server; null = not an LSTM
  core::LstmPredictorOptions lstm_opts_;
};

// ---- the replica ------------------------------------------------------------

struct NnCounters {
  std::uint64_t calls = 0;
  std::uint64_t macs = 0;
};

NnCounters read_nn_counters() {
  const telemetry::RegistrySnapshot snap = telemetry::global_registry().snapshot();
  NnCounters c;
  if (const auto* m = snap.find("nn.gemm.calls")) c.calls = m->count;
  if (const auto* m = snap.find("nn.gemm.macs")) c.macs = m->count;
  return c;
}

struct PhaseLedger {
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::size_t jobs_completed = 0;  // measured run only
  GlobalLedger global;
  LocalLedger local;
  core::DecisionServiceStats decision;  // delta over the phase (max: lifetime)
  NnCounters nn;                        // delta over the phase (traced only)
};

struct ReplicaResult {
  double total_s = 0.0;
  double setup_s = 0.0;
  double produce_s = 0.0;
  double build_s = 0.0;
  std::size_t jobs_submitted = 0;
  PhaseLedger pretrain;
  PhaseLedger measured;
  sim::MetricsSnapshot snapshot;
  double latency_p99_s = 0.0;
};

sim::ClusterConfig cluster_config(const core::ExperimentConfig& cfg) {
  sim::ClusterConfig cc;
  cc.num_servers = cfg.num_servers;
  cc.server = cfg.server;
  return cc;
}

/// Runs one phase's event loop and fills `out`; the decorators (if any) are
/// reset before and drained into `out` after, so each phase owns its split.
template <class Body>
void run_phase(PhaseLedger& out, TimedAllocation* ta, TimedPower* tp,
               const core::DecisionService& service, bool traced, Body&& body) {
  if (ta != nullptr) ta->ledger = {};
  if (tp != nullptr) tp->ledger = {};
  const core::DecisionServiceStats d0 = service.stats();
  const NnCounters nn0 = traced ? read_nn_counters() : NnCounters{};
  const auto t0 = Clock::now();
  body(out);
  out.wall_s = seconds_since(t0);
  if (ta != nullptr) out.global = std::move(ta->ledger);
  if (tp != nullptr) out.local = tp->ledger;
  const core::DecisionServiceStats& d1 = service.stats();
  out.decision.flushes = d1.flushes - d0.flushes;
  out.decision.q_requests = d1.q_requests - d0.q_requests;
  out.decision.predict_requests = d1.predict_requests - d0.predict_requests;
  out.decision.max_epoch_requests = d1.max_epoch_requests;
  if (traced) {
    const NnCounters nn1 = read_nn_counters();
    out.nn = {nn1.calls - nn0.calls, nn1.macs - nn0.macs};
  }
}

/// Everything core::run_scenario() does before its first simulated event:
/// validation, trace production, both tiers from the registry, and the
/// decision service wired into them.
struct Setup {
  core::ExperimentConfig cfg;
  core::Trace trace;
  policy::SystemBundle bundle;
  std::unique_ptr<core::DecisionService> service = std::make_unique<core::DecisionService>();
  double produce_s = 0.0;
  double build_s = 0.0;
  double setup_s = 0.0;
};

Setup set_up(const core::Scenario& scenario) {
  Setup su;
  const auto t0 = Clock::now();
  scenario.validate();
  su.cfg = scenario.materialized();
  if (su.cfg.gemm_threads > 0) nn::set_gemm_threads(su.cfg.gemm_threads);

  auto t = Clock::now();
  su.trace = scenario.effective_trace()->produce();
  su.produce_s = seconds_since(t);

  t = Clock::now();
  su.bundle = policy::build_system(su.cfg);
  su.build_s = seconds_since(t);

  if (su.cfg.batch_decisions) {
    if (su.bundle.drl != nullptr) su.bundle.drl->set_decision_service(su.service.get());
    if (su.bundle.local_rl != nullptr) su.bundle.local_rl->set_decision_service(su.service.get());
  }
  su.setup_s = seconds_since(t0);
  return su;
}

/// The steps of core::run_scenario(), from public pieces, with each phase
/// timed (and, when `traced`, each tier timed through the decorators).
ReplicaResult run_replica(const core::Scenario& scenario, bool traced) {
  ReplicaResult r;
  telemetry::set_enabled(traced);
  const auto t0 = Clock::now();

  Setup su = set_up(scenario);
  const core::ExperimentConfig& cfg = su.cfg;
  core::Trace& trace = su.trace;
  policy::SystemBundle& bundle = su.bundle;
  const core::DecisionService& service = *su.service;
  r.setup_s = su.setup_s;
  r.produce_s = su.produce_s;
  r.build_s = su.build_s;
  r.jobs_submitted = trace.jobs.size();

  std::unique_ptr<TimedAllocation> ta;
  std::unique_ptr<TimedPower> tp;
  if (traced) {
    ta = std::make_unique<TimedAllocation>(*bundle.allocation, bundle.drl);
    tp = std::make_unique<TimedPower>(*bundle.power, bundle.local_rl, cfg.num_servers);
  }
  sim::AllocationPolicy& allocation = traced ? *ta : *bundle.allocation;
  sim::PowerPolicy& power = traced ? static_cast<sim::PowerPolicy&>(*tp) : *bundle.power;

  // ---- offline construction phase (DRL systems only) ----
  if (bundle.drl != nullptr && cfg.pretrain_jobs > 0) {
    run_phase(r.pretrain, ta.get(), tp.get(), service, traced, [&](PhaseLedger& out) {
      const std::size_t n = std::min(cfg.pretrain_jobs, trace.jobs.size());
      std::vector<sim::Job> prefix(trace.jobs.begin(),
                                   trace.jobs.begin() + static_cast<std::ptrdiff_t>(n));
      sim::Cluster warmup(cluster_config(cfg), allocation, power);
      warmup.load_jobs(std::move(prefix));
      while (warmup.step()) ++out.events;
      bundle.drl->end_episode();
    });
  }

  // ---- measured run ----
  if (bundle.drl != nullptr) bundle.drl->set_learning(cfg.learn_during_run);
  if (bundle.local_rl != nullptr) bundle.local_rl->set_learning(cfg.learn_during_run);

  run_phase(r.measured, ta.get(), tp.get(), service, traced, [&](PhaseLedger& out) {
    std::unique_ptr<sim::FaultInjector> faults;
    if (cfg.faults.enabled()) {
      sim::FaultConfig fc = cfg.faults;
      if (fc.seed == 0) {
        fc.seed = common::SplitMix64(cfg.trace.seed ^ 0xFA017FA017FA017FULL).next();
      }
      const double horizon =
          (trace.jobs.empty() ? 0.0 : trace.jobs.back().arrival) + fc.horizon_padding_s;
      faults = std::make_unique<sim::FaultInjector>(fc, cfg.num_servers, horizon);
    }
    sim::Cluster cluster(cluster_config(cfg), allocation, power);
    cluster.install_faults(faults.get());
    cluster.load_jobs(std::move(trace.jobs));
    while (cluster.step()) ++out.events;
    r.snapshot = cluster.snapshot();
    out.jobs_completed = r.snapshot.jobs_completed;
    std::vector<double> latencies;
    latencies.reserve(cluster.metrics().job_records().size());
    for (const sim::JobRecord& rec : cluster.metrics().job_records()) {
      latencies.push_back(rec.latency());
    }
    if (!latencies.empty()) r.latency_p99_s = common::percentile(latencies, 0.99);
  });

  r.total_s = seconds_since(t0);
  telemetry::set_enabled(false);
  return r;
}

// ---- output -----------------------------------------------------------------

/// Every MetricsSnapshot field (plus p99) as exact bit patterns.
std::string fingerprint(const sim::MetricsSnapshot& s, double p99) {
  std::string out;
  const auto add = [&](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64 ":", bits);
    out += buf;
  };
  const auto add_n = [&](std::size_t n) { out += std::to_string(n) + ":"; };
  add(s.now);
  add_n(s.jobs_arrived);
  add_n(s.jobs_completed);
  add(s.energy_joules);
  add(s.accumulated_latency_s);
  add(s.average_power_watts);
  add(s.jobs_in_system);
  add(s.reliability_penalty);
  const sim::FaultCounters& f = s.faults;
  for (std::size_t n : {f.crashes, f.recoveries, f.evictions, f.jobs_killed, f.bounces,
                        f.retries, f.jobs_lost}) {
    add_n(n);
  }
  add(f.lost_cpu_seconds);
  add(f.downtime_s);
  add(p99);
  return out;
}

double percentile_of(std::vector<double> v, double q) {
  return v.empty() ? 0.0 : common::percentile(v, q);
}

class JsonLine {
 public:
  void num(const std::string& key, double v) {
    char buf[40];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
    } else {
      std::snprintf(buf, sizeof buf, "\"%s\"", std::isnan(v) ? "nan" : "inf");
    }
    field(key, buf);
  }
  void str(const std::string& key, const std::string& v) { field(key, "\"" + v + "\""); }
  void boolean(const std::string& key, bool v) { field(key, v ? "true" : "false"); }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void field(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + value;
  }
  std::string body_;
};

/// The traced ledger of one phase, keys prefixed with `p`.
void emit_phase(JsonLine& j, const std::string& p, const PhaseLedger& ph) {
  j.num(p + "wall_s", ph.wall_s);
  j.num(p + "sim.events", static_cast<double>(ph.events));
  const GlobalLedger& g = ph.global;
  const LocalLedger& l = ph.local;
  const double global_s = g.select_s + g.end_s;
  const double local_s = l.arrival_s + l.decide_s;
  const double timer_s = 2.0 * g_clock_read_s * static_cast<double>(g.timed_calls + l.timed_calls);
  const double sim_self = ph.wall_s - global_s - local_s - timer_s;
  j.num(p + "timer_s", timer_s);
  j.num(p + "sim.self_s", sim_self);
  j.num(p + "sim.ns_per_event", ph.events > 0 ? sim_self * 1e9 / static_cast<double>(ph.events) : 0.0);
  j.num(p + "global.s", global_s);
  j.num(p + "global.select_s", g.select_s);
  j.num(p + "global.train_s", g.train_s);
  j.num(p + "global.act_s", g.act_s);
  j.num(p + "global.select_calls", static_cast<double>(g.call_us.size()));
  j.num(p + "global.select_p50_us", percentile_of(g.call_us, 0.50));
  j.num(p + "global.select_p99_us", percentile_of(g.call_us, 0.99));
  j.num(p + "global.train_steps", static_cast<double>(g.train_steps));
  j.num(p + "local.s", local_s);
  j.num(p + "local.arrival_s", l.arrival_s);
  j.num(p + "local.train_s", l.train_s);
  j.num(p + "local.observe_s", l.observe_s);
  j.num(p + "local.train_rounds", static_cast<double>(l.train_rounds));
  j.num(p + "local.decide_s", l.decide_s);
  j.num(p + "local.decisions", static_cast<double>(l.decisions));
  j.num(p + "decision.flushes", static_cast<double>(ph.decision.flushes));
  j.num(p + "decision.q_requests", static_cast<double>(ph.decision.q_requests));
  j.num(p + "decision.predict_requests", static_cast<double>(ph.decision.predict_requests));
  j.num(p + "decision.max_epoch_width", static_cast<double>(ph.decision.max_epoch_requests));
  j.num(p + "nn.gemm.calls", static_cast<double>(ph.nn.calls));
  j.num(p + "nn.gemm.macs", static_cast<double>(ph.nn.macs));
  // MACs over the time spent in the tiers that run the networks.
  j.num(p + "nn.gmac_per_s",
        global_s + local_s > 0.0 ? static_cast<double>(ph.nn.macs) / (global_s + local_s) / 1e9
                                 : 0.0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

int run(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      workload = value();
    } else if (a == "--seed") {
      seed = std::stoull(value());
      have_seed = true;
    } else if (a == "--traced") {
      traced = true;
    } else {
      throw std::invalid_argument("unknown argument '" + a + "'");
    }
  }
  if (workload.empty() || !have_seed) {
    throw std::invalid_argument("usage: perfbench_cell --workload <name> --seed <n> [--traced]");
  }
  const Workload& w = find_workload(workload);
  common::set_log_level(common::LogLevel::kWarn);
  if (traced) g_clock_read_s = measure_clock_read_s();

  const core::Scenario scenario = make_scenario(w, seed);

  // 1. The whole cell through core::run_scenario(), tracing off.
  telemetry::set_enabled(false);
  const auto t0 = Clock::now();
  const core::ExperimentResult result = core::run_scenario(scenario);
  const double cell_wall_s = seconds_since(t0);
  const double rss_mb = peak_rss_mb();

  // 2. The same cell rebuilt from public pieces, untraced; with --traced a
  //    traced replica follows, so the two differ only in the tracing.
  const ReplicaResult plain = run_replica(scenario, false);
  const std::optional<ReplicaResult> traced_rep =
      traced ? std::optional<ReplicaResult>(run_replica(scenario, true)) : std::nullopt;
  const ReplicaResult& rep = traced ? *traced_rep : plain;

  // 3. Set-up alone, repeated (`setup_s` is the median, the replica's included).
  std::vector<double> setups{plain.setup_s};
  for (double spent = 0.0; setups.size() < kMaxSetups &&
                           (setups.size() < kMinSetups || spent < kSetupBudgetS);) {
    setups.push_back(set_up(scenario).setup_s);
    spent += setups.back();
  }

  const sim::MetricsSnapshot& s = result.final_snapshot;
  const std::string fp = fingerprint(s, result.latency_p99_s);
  const bool parity = fp == fingerprint(plain.snapshot, plain.latency_p99_s) &&
                      fp == fingerprint(rep.snapshot, rep.latency_p99_s);
  const double submitted = static_cast<double>(rep.jobs_submitted);

  JsonLine j;
  j.str("workload", w.name);
  j.str("registry", w.registry);
  j.str("system", core::to_string(scenario.materialized().system));
  j.num("seed", static_cast<double>(seed));
  j.num("trace_jobs", static_cast<double>(w.jobs));
  j.boolean("traced", traced);
  j.str("precision", nn::to_string(scenario.materialized().precision));
  j.num("gemm_threads", static_cast<double>(scenario.materialized().gemm_threads));
  j.str("fingerprint", fp);
  j.boolean("parity", parity);
  j.num("jobs_submitted", submitted);
  j.num("jobs_completed", static_cast<double>(s.jobs_completed));
  j.num("jobs_lost", static_cast<double>(s.faults.jobs_lost));
  j.num("cell_wall_s", cell_wall_s);
  j.num("peak_rss_mb", rss_mb);
  j.num("energy_kwh", s.energy_kwh());
  j.num("latency_mean_s", s.average_latency_s());
  j.num("latency_p99_s", result.latency_p99_s);
  j.num("jobs_failed_frac", submitted > 0 ? static_cast<double>(s.faults.jobs_lost) / submitted : 0.0);
  j.num("sim.faults.crashes", static_cast<double>(s.faults.crashes));
  j.num("sim.faults.retries", static_cast<double>(s.faults.retries));
  j.num("sim.faults.jobs_lost", static_cast<double>(s.faults.jobs_lost));
  j.num("replica.total_s", rep.total_s);
  j.num("replica.untraced_s", plain.total_s);
  j.num("setups", static_cast<double>(setups.size()));
  j.num("setup_s", percentile_of(setups, 0.5));
  j.num("workload.produce_s", rep.produce_s);
  j.num("workload.jobs", submitted);
  j.num("policy.build_s", rep.build_s);
  j.num("pretrain_s", plain.pretrain.wall_s);
  j.num("measured_jobs_per_s", plain.measured.wall_s > 0.0
                                   ? static_cast<double>(plain.measured.jobs_completed) /
                                         plain.measured.wall_s
                                   : 0.0);
  if (traced) {
    emit_phase(j, "pretrain.", rep.pretrain);
    emit_phase(j, "measured.", rep.measured);
  }
  std::printf("%s\n", j.done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_cell: %s\n", e.what());
    return 1;
  }
}
