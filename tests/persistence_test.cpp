// Model persistence for the global tier: a trained DrlAllocator can be
// saved, reloaded into a fresh allocator, and reproduces identical greedy
// decisions — the deployment workflow (offline construction, then frozen
// online serving).
#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "src/core/global_tier.hpp"
#include "src/sim/cluster.hpp"
#include "src/workload/generator.hpp"

namespace hcrl::core {
namespace {

DrlAllocatorOptions small_opts() {
  DrlAllocatorOptions o;
  o.qnet.encoder.num_servers = 6;
  o.qnet.encoder.num_groups = 2;
  o.qnet.autoencoder_dims = {8, 4};
  o.qnet.subq_hidden = 16;
  o.min_replay_before_training = 32;
  o.batch_size = 8;
  o.seed = 31;
  return o;
}

std::vector<sim::Job> trace(std::size_t n, std::uint64_t seed) {
  workload::GeneratorOptions g;
  g.num_jobs = n;
  g.horizon_s = static_cast<double>(n) * 8.0;
  g.seed = seed;
  return workload::GoogleTraceGenerator(g).generate();
}

TEST(DrlPersistence, SaveLoadReproducesGreedyDecisions) {
  const std::string path = testing::TempDir() + "/hcrl_drl_model.txt";

  DrlAllocator trained(small_opts());
  {
    sim::ImmediateSleepPolicy power;
    sim::ClusterConfig cfg;
    cfg.num_servers = 6;
    sim::Cluster cluster(cfg, trained, power);
    cluster.load_jobs(trace(600, 3));
    cluster.run();
  }
  ASSERT_GT(trained.train_steps(), 0);
  trained.save_model(path);

  DrlAllocatorOptions fresh_opts = small_opts();
  fresh_opts.seed = 99;  // different init; weights come from the file
  DrlAllocator restored(fresh_opts);
  restored.load_model(path);

  trained.set_learning(false);
  restored.set_learning(false);

  // Replay a fresh trace through both greedy policies side by side.
  sim::AlwaysOnPolicy power;
  sim::ClusterConfig cfg;
  cfg.num_servers = 6;
  sim::Cluster ca(cfg, trained, power);
  sim::Cluster cb(cfg, restored, power);
  const auto jobs = trace(200, 17);
  for (const auto& job : jobs) {
    EXPECT_EQ(trained.select_server(ca, job), restored.select_server(cb, job));
  }
}

// The checkpoint format is precision-agnostic (decimal text at full double
// precision): an f64-trained model loads into an f32 allocator — and round
// trips through an f32 save — with only f32 rounding, so the two agree on
// the Q-value ranking almost everywhere.
TEST(DrlPersistence, CheckpointCrossesPrecisions) {
  const std::string path64 = testing::TempDir() + "/hcrl_drl_model_f64.txt";
  const std::string path32 = testing::TempDir() + "/hcrl_drl_model_f32.txt";

  DrlAllocator trained(small_opts());
  {
    sim::ImmediateSleepPolicy power;
    sim::ClusterConfig cfg;
    cfg.num_servers = 6;
    sim::Cluster cluster(cfg, trained, power);
    cluster.load_jobs(trace(600, 3));
    cluster.run();
  }
  ASSERT_GT(trained.train_steps(), 0);
  trained.save_model(path64);

  DrlAllocatorOptions f32_opts = small_opts();
  f32_opts.seed = 99;
  f32_opts.qnet.precision = nn::Precision::kF32;
  DrlAllocator restored32(f32_opts);
  restored32.load_model(path64);
  restored32.save_model(path32);  // f32 save also round-trips
  DrlAllocator again32(f32_opts);
  again32.load_model(path32);

  trained.set_learning(false);
  restored32.set_learning(false);
  again32.set_learning(false);

  sim::AlwaysOnPolicy power;
  sim::ClusterConfig cfg;
  cfg.num_servers = 6;
  sim::Cluster ca(cfg, trained, power);
  sim::Cluster cb(cfg, restored32, power);
  sim::Cluster cc(cfg, again32, power);
  const auto jobs = trace(200, 17);
  int agree = 0;
  for (const auto& job : jobs) {
    const auto a = trained.select_server(ca, job);
    const auto b = restored32.select_server(cb, job);
    const auto c = again32.select_server(cc, job);
    EXPECT_EQ(b, c) << "f32 round trip must be exact";
    agree += a == b ? 1 : 0;
  }
  // Near-tie Q-values may flip under f32 rounding; wholesale disagreement
  // would mean the checkpoint did not really cross.
  EXPECT_GE(agree, static_cast<int>(jobs.size()) * 9 / 10) << agree << "/" << jobs.size();
}

TEST(DrlPersistence, LoadIntoMismatchedArchitectureFails) {
  const std::string path = testing::TempDir() + "/hcrl_drl_model2.txt";
  DrlAllocator a(small_opts());
  a.save_model(path);
  auto other = small_opts();
  other.qnet.subq_hidden = 24;
  DrlAllocator b(other);
  EXPECT_THROW(b.load_model(path), std::invalid_argument);
}

// Writes the checkpoint at `from` to `to` with its lines passed through edit.
void rewrite_checkpoint(const std::string& from, const std::string& to,
                        const std::function<void(std::vector<std::string>&)>& edit) {
  std::ifstream in(from);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  edit(lines);
  std::ofstream out(to);
  for (const auto& l : lines) out << l << "\n";
}

// Loading `path` must throw before any parameter is written: a failed load
// leaves the model exactly as it was, at either precision.
void expect_rejected_with_model_unchanged(const std::string& path) {
  for (const nn::Precision precision : {nn::Precision::kF64, nn::Precision::kF32}) {
    DrlAllocatorOptions o = small_opts();
    o.seed = 99;
    o.qnet.precision = precision;
    DrlAllocator alloc(o);
    const std::vector<double> before = alloc.network().param_values();
    EXPECT_THROW(alloc.load_model(path), std::invalid_argument) << nn::to_string(precision);
    const std::vector<double> after = alloc.network().param_values();
    ASSERT_EQ(after.size(), before.size());
    std::size_t changed = 0;
    for (std::size_t i = 0; i < after.size(); ++i) changed += after[i] != before[i] ? 1 : 0;
    EXPECT_EQ(changed, 0u) << "of " << after.size() << " at " << nn::to_string(precision);
  }
}

TEST(DrlPersistence, TruncatedCheckpointLeavesTheModelUnchanged) {
  const std::string path = testing::TempDir() + "/hcrl_drl_model_full.txt";
  const std::string cut = testing::TempDir() + "/hcrl_drl_model_cut.txt";
  DrlAllocator(small_opts()).save_model(path);
  rewrite_checkpoint(path, cut, [](std::vector<std::string>& lines) {
    lines.resize(lines.size() / 2);
  });
  expect_rejected_with_model_unchanged(cut);
}

// One value line written twice leaves the declared count of values before
// the end of the file; loading them would shift every later parameter into
// its neighbour's slot, so the extra line must be rejected.
TEST(DrlPersistence, DuplicatedValueLineIsRejected) {
  const std::string path = testing::TempDir() + "/hcrl_drl_model_dup_src.txt";
  const std::string dup = testing::TempDir() + "/hcrl_drl_model_dup.txt";
  DrlAllocator(small_opts()).save_model(path);
  rewrite_checkpoint(path, dup, [](std::vector<std::string>& lines) {
    const std::size_t mid = lines.size() / 2;  // a value line, past the header
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(mid), lines[mid]);
  });
  expect_rejected_with_model_unchanged(dup);
  // Trailing whitespace alone is not extra data.
  const std::string padded = testing::TempDir() + "/hcrl_drl_model_ws.txt";
  rewrite_checkpoint(path, padded, [](std::vector<std::string>& lines) {
    lines.push_back("");
    lines.push_back("  ");
  });
  DrlAllocator alloc(small_opts());
  EXPECT_NO_THROW(alloc.load_model(padded));
}

}  // namespace
}  // namespace hcrl::core
