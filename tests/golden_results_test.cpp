// Cross-commit behaviour goldens. Every other parity test compares two paths
// inside one build, so a refactor that changes both sides the same way passes
// them unseen. This suite instead pins, as hex-float (`%a`) text committed
// under tests/golden/, what a fixed set of registry scenarios produce: the
// final MetricsSnapshot with its fault counters, the checkpoint series and
// the p95/p99 tail latencies, at f64 and at f32.
//
// The goldens are pinned for the CI toolchain (x86-64 GCC, glibc libm); a
// different compiler or libm may legitimately round differently.
//
// dqn_golden_test pins the global tier's NN numerics the same way.
//
// Regenerate with scripts/regen_goldens.sh (it sets HCRL_REGEN_GOLDENS=1,
// which makes this suite write the files instead of comparing). Every golden
// change must be justified in CHANGES.md.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "src/core/runner.hpp"
#include "src/core/scenario.hpp"
#include "src/nn/precision.hpp"
#include "tests/golden_file.hpp"

namespace hcrl {
namespace {

using core::ExperimentResult;
using core::ScenarioRegistry;
using test::appendf;
using test::check_golden;

struct Cell {
  std::string scenario;
  nn::Precision precision;
};

// Tiny cells and the table1 prefix run 600 jobs (the catalog samples ignore
// the count and replay their whole fixture).
constexpr std::size_t kJobs = 600;

std::vector<Cell> cells() {
  std::vector<std::string> names;
  for (const std::string& name : ScenarioRegistry::builtin().names()) {
    if (name.rfind("tiny/", 0) == 0) names.push_back(name);
  }
  names.insert(names.end(),
               {"google2011-sample", "alibaba2018-sample", "table1/m30/hierarchical"});
  std::vector<Cell> out;
  for (const std::string& name : names) {
    for (const nn::Precision p : {nn::Precision::kF64, nn::Precision::kF32}) {
      out.push_back({name, p});
    }
  }
  return out;
}

std::string cell_id(const Cell& c) {
  std::string id = c.scenario + "." + nn::to_string(c.precision);
  for (char& ch : id) {
    if (ch == '/') ch = '_';
  }
  return id;
}

std::string render(const Cell& c, const ExperimentResult& r) {
  std::string out;
  appendf(out, "scenario = %s\nprecision = %s\njobs = %zu\n", c.scenario.c_str(),
          nn::to_string(c.precision).c_str(), kJobs);
  appendf(out, "allocator = %s\npower = %s\n", r.allocator.c_str(), r.power.c_str());
  const sim::MetricsSnapshot& s = r.final_snapshot;
  appendf(out, "final.now = %a\n", s.now);
  appendf(out, "final.jobs_arrived = %zu\n", s.jobs_arrived);
  appendf(out, "final.jobs_completed = %zu\n", s.jobs_completed);
  appendf(out, "final.energy_joules = %a\n", s.energy_joules);
  appendf(out, "final.accumulated_latency_s = %a\n", s.accumulated_latency_s);
  appendf(out, "final.average_power_watts = %a\n", s.average_power_watts);
  appendf(out, "final.jobs_in_system = %a\n", s.jobs_in_system);
  appendf(out, "final.reliability_penalty = %a\n", s.reliability_penalty);
  const sim::FaultCounters& f = s.faults;
  appendf(out, "faults.crashes = %zu\n", f.crashes);
  appendf(out, "faults.recoveries = %zu\n", f.recoveries);
  appendf(out, "faults.evictions = %zu\n", f.evictions);
  appendf(out, "faults.jobs_killed = %zu\n", f.jobs_killed);
  appendf(out, "faults.bounces = %zu\n", f.bounces);
  appendf(out, "faults.retries = %zu\n", f.retries);
  appendf(out, "faults.jobs_lost = %zu\n", f.jobs_lost);
  appendf(out, "faults.lost_cpu_seconds = %a\n", f.lost_cpu_seconds);
  appendf(out, "faults.downtime_s = %a\n", f.downtime_s);
  appendf(out, "latency_p95_s = %a\nlatency_p99_s = %a\n", r.latency_p95_s, r.latency_p99_s);
  appendf(out, "sla_violations = %zu\nservers_on_at_end = %zu\n", r.sla_violations,
          r.servers_on_at_end);
  for (std::size_t i = 0; i < r.series.size(); ++i) {
    const core::CheckpointRow& row = r.series[i];
    appendf(out, "checkpoint[%zu] = %zu %a %a %a %a\n", i, row.jobs_completed, row.sim_time_s,
            row.accumulated_latency_s, row.energy_kwh, row.average_power_w);
  }
  return out;
}

std::string golden_path(const Cell& c) {
  return std::string(HCRL_GOLDEN_DIR) + "/" + cell_id(c) + ".txt";
}

class GoldenResults : public ::testing::TestWithParam<Cell> {};

TEST_P(GoldenResults, MatchesCommittedGolden) {
  const Cell& c = GetParam();
  core::Scenario s = ScenarioRegistry::builtin().make(c.scenario, kJobs);
  s.config.precision = c.precision;
  check_golden(golden_path(c), render(c, core::run_scenario(s)));
}

INSTANTIATE_TEST_SUITE_P(Registry, GoldenResults, ::testing::ValuesIn(cells()),
                         [](const ::testing::TestParamInfo<Cell>& info) {
                           std::string id = cell_id(info.param);
                           for (char& ch : id) {
                             if (std::isalnum(static_cast<unsigned char>(ch)) == 0) ch = '_';
                           }
                           return id;
                         });

}  // namespace
}  // namespace hcrl
