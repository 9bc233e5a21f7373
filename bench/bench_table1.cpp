// Reproduces Table I: accumulated energy, accumulated latency and average
// power at 95,000 jobs for M = 30 and M = 40, under round-robin, DRL-only
// and the hierarchical framework.
//
// Every "table1/" cell of the builtin registry (the six paper cells plus the
// fault-injected m30 twin) runs as one ParallelRunner batch; each cluster
// size shares one cached trace. Each M's table is picked by scenario name
// from its three paper systems; any other cell prints on its own line.
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"

namespace {

struct PaperRow {
  const char* system;
  double energy_kwh;
  double latency_1e6s;
  double power_w;
};

// Paper values (Table I) for reference printing.
constexpr PaperRow kPaperM30[] = {
    {"round-robin", 441.47, 85.20, 2627.79},
    {"drl-only", 242.25, 109.73, 1441.96},
    {"hierarchical", 203.21, 92.53, 1209.58},
};
constexpr PaperRow kPaperM40[] = {
    {"round-robin", 561.13, 85.20, 3340.06},
    {"drl-only", 273.41, 108.76, 1627.44},
    {"hierarchical", 224.51, 94.26, 1336.37},
};

struct PaperTable {
  std::size_t machines;
  const char* prefix;  // registry name prefix of this M's cells
  const PaperRow* rows;
};
constexpr PaperTable kTables[] = {{30, "table1/m30/", kPaperM30}, {40, "table1/m40/", kPaperM40}};

// The three paper-system results of one table, in paper-row order, picked
// from the sweep by scenario name ("table1/m30/drl-only", ...) and marked in
// `reported`. Throws unless each system matches exactly one cell.
std::vector<hcrl::core::ExperimentResult> paper_block(
    const PaperTable& table, const std::vector<hcrl::core::Scenario>& scenarios,
    const std::vector<hcrl::core::ExperimentResult>& results, std::vector<bool>& reported) {
  std::vector<hcrl::core::ExperimentResult> block;
  for (int i = 0; i < 3; ++i) {
    const std::string name = std::string(table.prefix) + table.rows[i].system;
    for (std::size_t j = 0; j < scenarios.size(); ++j) {
      if (scenarios[j].name != name) continue;
      block.push_back(results[j]);
      reported[j] = true;
    }
    if (block.size() != static_cast<std::size_t>(i) + 1) {
      throw std::runtime_error("bench_table1: want exactly one '" + name + "' cell, got " +
                               std::to_string(block.size() - static_cast<std::size_t>(i)));
    }
  }
  return block;
}

void report_for_machines(std::size_t machines, std::size_t jobs, const PaperRow* paper,
                         const std::vector<hcrl::core::ExperimentResult>& results) {
  std::printf("\n=== Table I, M = %zu, %zu jobs ===\n", machines, jobs);
  std::printf("--- paper reports (at 95,000 jobs on the real Google trace) ---\n");
  for (int i = 0; i < 3; ++i) {
    std::printf("%-22s %12.2f %16.2f %12.2f\n", paper[i].system, paper[i].energy_kwh,
                paper[i].latency_1e6s, paper[i].power_w);
  }
  std::printf("--- this reproduction (synthetic Google-like trace) ---\n");
  hcrl::bench::print_result_header();
  for (const auto& r : results) hcrl::bench::print_result_row(r);

  const double rr = results[0].final_snapshot.energy_joules;
  const double drl = results[1].final_snapshot.energy_joules;
  const double hier = results[2].final_snapshot.energy_joules;
  std::printf("energy saving vs round-robin: drl-only %.1f%%, hierarchical %.1f%% "
              "(paper: %.1f%%, %.1f%%)\n",
              100.0 * (1.0 - drl / rr), 100.0 * (1.0 - hier / rr),
              100.0 * (1.0 - paper[1].energy_kwh / paper[0].energy_kwh),
              100.0 * (1.0 - paper[2].energy_kwh / paper[0].energy_kwh));
  std::printf("hierarchical vs drl-only: energy %.1f%% lower, latency %.1f%% lower "
              "(paper: %.1f%%, %.1f%%)\n",
              100.0 * (1.0 - hier / drl),
              100.0 * (1.0 - results[2].final_snapshot.accumulated_latency_s /
                                 results[1].final_snapshot.accumulated_latency_s),
              100.0 * (1.0 - paper[2].energy_kwh / paper[1].energy_kwh),
              100.0 * (1.0 - paper[2].latency_1e6s / paper[1].latency_1e6s));
}

}  // namespace

// Real-trace cells: the bundled TraceCatalog fixtures plus their
// calibrated-synthetic twins, run through the same sweep machinery. The
// paper evaluates on a real Google trace segment; these cells are this
// reproduction's equivalent at fixture scale. Skipped (with a notice) when
// the data/traces fixtures cannot be found.
void report_real_trace_cells() {
  std::vector<hcrl::core::Scenario> scenarios;
  const auto& registry = hcrl::core::ScenarioRegistry::builtin();
  try {
    for (const char* name : {"google2011-sample", "google2011-calibrated",
                             "alibaba2018-sample", "alibaba2018-calibrated"}) {
      scenarios.push_back(registry.make(name, 0));
      scenarios.back().config.checkpoint_every_jobs = 0;
    }
  } catch (const std::exception& e) {
    std::printf("\n=== real-trace cells skipped: %s ===\n", e.what());
    return;
  }
  const auto results = hcrl::bench::run_parallel_sweep(scenarios);
  std::printf("\n=== real-trace cells (bundled fixture slices, 6 servers) ===\n");
  std::printf("%-26s ", "scenario");
  hcrl::bench::print_result_header();
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::printf("%-26s ", scenarios[i].name.c_str());
    hcrl::bench::print_result_row(results[i]);
  }
}

int main() {
  const std::size_t jobs = hcrl::bench::env_jobs(95000);
  try {
    const auto scenarios = hcrl::core::ScenarioRegistry::builtin().make_group("table1/", jobs);
    const auto results = hcrl::bench::run_parallel_sweep(scenarios);

    std::vector<bool> reported(scenarios.size(), false);
    for (const PaperTable& table : kTables) {
      report_for_machines(table.machines, jobs, table.rows,
                          paper_block(table, scenarios, results, reported));
    }
    // Cells outside the paper's table (the fault-injected twin), one line each.
    std::printf("\n=== other table1 cells, %zu jobs ===\n%-32s ", jobs, "scenario");
    hcrl::bench::print_result_header();
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      if (reported[i]) continue;
      std::printf("%-32s ", scenarios[i].name.c_str());
      hcrl::bench::print_result_row(results[i]);
    }

    report_real_trace_cells();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_table1: %s\n", e.what());
    return 1;
  }
  return 0;
}
