// Cross-commit golden of the global tier's NN numerics: the grouped Sub-Q
// network's parameters after a fixed run of seeded gradient steps at the
// table1/m30 shapes, with double Q-learning off and on, at f64 and f32. The
// registry goldens (golden_results_test) take no DQN gradient step at their
// 600-job size, so a numerics change that flips no decision would pass them
// unseen; this suite catches it. Each step also drives train_batch's
// bootstrap helper thread, so the TSan CI leg runs it.
//
// Same file format rules as golden_results_test: hex-float text committed
// under tests/golden/, pinned for the CI toolchain, rewritten by
// scripts/regen_goldens.sh, every change justified in CHANGES.md.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/qnetwork.hpp"
#include "src/nn/precision.hpp"
#include "src/rl/replay.hpp"
#include "tests/golden_file.hpp"

namespace hcrl {
namespace {

using test::appendf;
using test::check_golden;

struct DqnCell {
  bool double_q;
  nn::Precision precision;
};

std::string dqn_cell_id(const DqnCell& c) {
  return std::string("dqn_m30") + (c.double_q ? "_double-q." : ".") +
         nn::to_string(c.precision);
}

constexpr int kDqnSteps = 240;
constexpr std::size_t kDqnBatch = 32;  // DrlAllocatorOptions::batch_size
constexpr double kDqnBeta = 0.05;      // DrlAllocatorOptions::beta
constexpr std::size_t kParamStride = 61;

/// `kDqnSteps` seeded gradient steps of a table1/m30-shaped network (30
/// servers in 3 groups, 3 resources, paper layer widths) on minibatches
/// drawn from a fixed synthetic replay, with a target sync every 50 steps
/// and the autoencoder fed one state per step, as the allocator does. The
/// text holds every step's loss, the parameter count, an FNV-1a hash over
/// the bit patterns of all of param_values() and every kParamStride-th
/// value, all as `%a`.
std::string render_dqn(const DqnCell& c) {
  core::GroupedQOptions o;
  o.encoder.num_servers = 30;
  o.encoder.num_groups = 3;
  o.encoder.num_resources = 3;
  o.double_q = c.double_q;
  o.precision = c.precision;
  common::Rng rng(2024);
  core::GroupedQNetwork net(o, rng);

  common::Rng data(17);
  auto state = [&] {
    nn::Vec s(net.state_dim());
    for (double& v : s) v = data.uniform();
    return s;
  };
  std::vector<rl::Transition> replay(600);
  for (rl::Transition& t : replay) {
    t.state = state();
    t.next_state = state();
    t.action = static_cast<std::size_t>(
        data.uniform_int(0, static_cast<std::int64_t>(net.num_actions()) - 1));
    t.reward_rate = -data.uniform() * 2.0;
    t.tau = data.exponential(1.0 / 20.0);
  }

  std::string out;
  appendf(out, "network = m30 (%zu servers, %zu groups)\nprecision = %s\ndouble_q = %d\n",
          o.encoder.num_servers, o.encoder.num_groups, nn::to_string(c.precision).c_str(),
          c.double_q ? 1 : 0);
  appendf(out, "steps = %d\nbatch = %zu\n", kDqnSteps, kDqnBatch);
  std::vector<const rl::Transition*> batch(kDqnBatch);
  for (int step = 0; step < kDqnSteps; ++step) {
    for (auto& t : batch) {
      t = &replay[static_cast<std::size_t>(
          data.uniform_int(0, static_cast<std::int64_t>(replay.size()) - 1))];
    }
    net.observe_state(batch.front()->state, data);
    appendf(out, "loss[%d] = %a\n", step, net.train_batch(batch, kDqnBeta));
    if ((step + 1) % 50 == 0) net.sync_target();
  }
  const std::vector<double> params = net.param_values();
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const double v : params) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (const unsigned char b : bytes) hash = (hash ^ b) * 0x100000001b3ULL;
  }
  appendf(out, "param_count = %zu\nparam_fnv1a64 = %016llx\n", params.size(),
          static_cast<unsigned long long>(hash));
  for (std::size_t i = 0; i < params.size(); i += kParamStride) {
    appendf(out, "param[%zu] = %a\n", i, params[i]);
  }
  return out;
}

class DqnParamGolden : public ::testing::TestWithParam<DqnCell> {};

TEST_P(DqnParamGolden, MatchesCommittedGolden) {
  const DqnCell& c = GetParam();
  check_golden(std::string(HCRL_GOLDEN_DIR) + "/" + dqn_cell_id(c) + ".txt", render_dqn(c));
}

INSTANTIATE_TEST_SUITE_P(Training, DqnParamGolden,
                         ::testing::Values(DqnCell{false, nn::Precision::kF64},
                                           DqnCell{false, nn::Precision::kF32},
                                           DqnCell{true, nn::Precision::kF64},
                                           DqnCell{true, nn::Precision::kF32}),
                         [](const ::testing::TestParamInfo<DqnCell>& info) {
                           std::string id = dqn_cell_id(info.param);
                           for (char& ch : id) {
                             if (std::isalnum(static_cast<unsigned char>(ch)) == 0) ch = '_';
                           }
                           return id;
                         });

}  // namespace
}  // namespace hcrl
