// Ablation A1 (§V-A design choice): the paper argues for an autoencoder +
// weight-sharing Q-network over a monolithic feed-forward Q-network. Both
// rows here are the same core::DrlAllocator (same options, reward, replay,
// exploration and first-fit guide) trained online on the same trace; only
// `num_groups` differs. With one group the single Sub-Q head reads
// [whole-cluster state, job state] and outputs all M Q-values, which is the
// monolithic net. The bench reports parameter counts and achieved
// energy/latency.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/core/global_tier.hpp"
#include "src/sim/cluster.hpp"
#include "src/workload/generator.hpp"

namespace {

using namespace hcrl;

struct Row {
  std::size_t qnet_params = 0;
  sim::MetricsSnapshot snap;
};

Row run_with_groups(core::ExperimentConfig cfg, std::size_t groups,
                    const std::vector<sim::Job>& jobs) {
  cfg.num_groups = groups;
  cfg.finalize();
  core::DrlAllocator alloc(cfg.drl);
  alloc.set_guide(std::make_unique<sim::FirstFitPackingAllocator>());
  sim::ImmediateSleepPolicy power;
  sim::ClusterConfig cc;
  cc.num_servers = cfg.num_servers;
  sim::Cluster cluster(cc, alloc, power);
  cluster.load_jobs(jobs);
  cluster.run();
  // With one group no head reads an autoencoder code (the autoencoder still
  // trains, but nothing downstream uses it), so only the Sub-Q net counts.
  const auto& net = alloc.network();
  const std::size_t ae = groups > 1 ? net.autoencoder_param_count() : 0;
  return {net.subq_param_count() + ae, cluster.snapshot()};
}

}  // namespace

int main() {
  const std::size_t jobs = hcrl::bench::env_jobs(20000);
  const auto cfg = hcrl::bench::paper_config(30, jobs);

  workload::GoogleTraceGenerator gen(cfg.trace);
  const auto trace = gen.generate();

  std::printf("=== Ablation A1: grouped+autoencoder+weight-sharing vs monolithic DQN ===\n");
  std::printf("(%zu jobs, M = 30; both trained online from scratch on the same trace)\n\n",
              jobs);

  const Row grouped = run_with_groups(cfg, cfg.num_groups, trace);
  const Row mono = run_with_groups(cfg, 1, trace);

  std::printf("%-28s %14s %14s %14s %12s\n", "architecture", "params(Q-net)", "energy(kWh)",
              "latency(1e6s)", "power(W)");
  const auto print_row = [](const char* label, const Row& r) {
    std::printf("%-28s %14zu %14.2f %14.3f %12.1f\n", label, r.qnet_params, r.snap.energy_kwh(),
                r.snap.accumulated_latency_s / 1e6, r.snap.average_power_watts);
  };
  print_row("grouped+shared (paper)", grouped);
  print_row("monolithic DQN (K = 1)", mono);
  std::printf("\n(paper's argument: weight sharing lets every sample train the one shared "
              "head and reduces parameters; K separate nets would cost ~K× the parameters "
              "and train each head on 1/K of the data)\n");
  return 0;
}
