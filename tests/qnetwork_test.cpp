#include "src/core/qnetwork.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "src/core/nonfinite.hpp"

namespace hcrl::core {
namespace {

GroupedQOptions small_opts() {
  GroupedQOptions o;
  o.encoder.num_servers = 6;
  o.encoder.num_groups = 2;
  o.encoder.num_resources = 2;
  o.autoencoder_dims = {8, 4};
  o.subq_hidden = 16;
  o.learning_rate = 3e-3;
  o.autoencoder_train_interval = 4;
  o.autoencoder_batch = 8;
  return o;
}

nn::Vec random_state(const GroupedQOptions& o, common::Rng& rng) {
  nn::Vec s(o.encoder.full_state_dim());
  for (auto& v : s) v = rng.uniform();
  return s;
}

TEST(GroupedQOptions, Validation) {
  EXPECT_NO_THROW(small_opts().validate());
  auto o = small_opts();
  o.autoencoder_dims = {};
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = small_opts();
  o.subq_hidden = 0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = small_opts();
  o.learning_rate = 0.0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
}

TEST(GroupedQNetwork, DimensionsFollowFigSix) {
  common::Rng rng(1);
  const auto o = small_opts();
  GroupedQNetwork net(o, rng);
  EXPECT_EQ(net.num_actions(), 6u);
  // head input = raw group (3 servers * 4 features) + job (3) + 1 other code (4).
  EXPECT_EQ(net.head_input_dim(), 12u + 3u + 4u);
  common::Rng srng(2);
  const nn::Vec q = net.q_values(random_state(o, srng));
  EXPECT_EQ(q.size(), 6u);
}

TEST(GroupedQNetwork, SliceHelpers) {
  common::Rng rng(3);
  const auto o = small_opts();
  GroupedQNetwork net(o, rng);
  nn::Vec state(o.encoder.full_state_dim());
  for (std::size_t i = 0; i < state.size(); ++i) state[i] = static_cast<double>(i);
  const nn::Vec g0 = net.slice_group(state, 0);
  const nn::Vec g1 = net.slice_group(state, 1);
  const nn::Vec job = net.slice_job(state);
  EXPECT_EQ(g0.size(), o.encoder.group_state_dim());
  EXPECT_DOUBLE_EQ(g0[0], 0.0);
  EXPECT_DOUBLE_EQ(g1[0], static_cast<double>(o.encoder.group_state_dim()));
  EXPECT_DOUBLE_EQ(job.back(), static_cast<double>(state.size() - 1));
  EXPECT_THROW(net.slice_group(state, 2), std::out_of_range);
  EXPECT_THROW(net.slice_group(nn::Vec(3), 0), std::invalid_argument);
  EXPECT_THROW(net.slice_job(nn::Vec(3)), std::invalid_argument);
}

TEST(GroupedQNetwork, TargetSyncMakesOutputsEqual) {
  common::Rng rng(4);
  const auto o = small_opts();
  GroupedQNetwork net(o, rng);
  common::Rng srng(5);
  const nn::Vec s = random_state(o, srng);
  net.sync_target();
  const nn::Vec online = net.q_values(s);
  const nn::Vec target = net.q_values_target(s);
  for (std::size_t i = 0; i < online.size(); ++i) EXPECT_DOUBLE_EQ(online[i], target[i]);
}

TEST(GroupedQNetwork, TrainBatchFitsFixedTargets) {
  // Freeze a single transition with a long sojourn (so the bootstrap term
  // vanishes) and verify the Q-value of the chosen action moves toward
  // reward_rate / beta while training loss decreases.
  common::Rng rng(6);
  const auto o = small_opts();
  GroupedQNetwork net(o, rng);
  common::Rng srng(7);

  rl::Transition t;
  t.state = random_state(o, srng);
  t.next_state = random_state(o, srng);
  t.action = 4;  // group 1, local index 1
  t.reward_rate = -2.0;
  t.tau = 1e9;
  const double beta = 0.5;

  double first_loss = 0.0, last_loss = 0.0;
  for (int i = 0; i < 300; ++i) {
    const double loss = net.train_batch({&t}, beta);
    if (i == 0) first_loss = loss;
    last_loss = loss;
  }
  EXPECT_LT(last_loss, first_loss);
  EXPECT_NEAR(net.q_values(t.state)[4], -2.0 / beta, 0.5);
}

TEST(GroupedQNetwork, TrainBatchRejectsEmpty) {
  common::Rng rng(8);
  GroupedQNetwork net(small_opts(), rng);
  EXPECT_THROW(net.train_batch({}, 0.5), std::invalid_argument);
}

std::vector<rl::Transition> random_transitions(const GroupedQOptions& o, std::size_t n,
                                               common::Rng& rng) {
  std::vector<rl::Transition> out(n);
  for (rl::Transition& t : out) {
    t.state = random_state(o, rng);
    t.next_state = random_state(o, rng);
    t.action = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(o.encoder.num_servers) - 1));
    t.reward_rate = -rng.uniform();
    t.tau = 1.0 + rng.uniform();
  }
  return out;
}

std::vector<const rl::Transition*> pointers(const std::vector<rl::Transition>& ts) {
  std::vector<const rl::Transition*> out;
  for (const rl::Transition& t : ts) out.push_back(&t);
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(GroupedQNetwork, BadStateInEitherThreadsRowsThrowsAndLeavesTheNetworkUsable) {
  // train_batch computes the bootstrap targets of the first ~2/3 of the
  // batch on its helper thread and the rest, plus the online pass, on the
  // caller. A bad state on either side must surface from train_batch after
  // the helper is joined, and leave the network exactly as it was.
  const auto o = small_opts();
  common::Rng data(30);
  const std::vector<rl::Transition> good = random_transitions(o, 9, data);
  struct Case {
    const char* name;
    std::size_t index;
    bool next_state;
  };
  for (const Case c : {Case{"helper next_state", 0, true}, Case{"caller next_state", 8, true},
                       Case{"caller state", 2, false}}) {
    SCOPED_TRACE(c.name);
    common::Rng rng_a(31), rng_b(31);
    GroupedQNetwork failed(o, rng_a);
    GroupedQNetwork twin(o, rng_b);
    std::vector<rl::Transition> bad = good;
    (c.next_state ? bad[c.index].next_state : bad[c.index].state).resize(3);
    EXPECT_THROW(failed.train_batch(pointers(bad), 0.5), std::invalid_argument);
    EXPECT_TRUE(same_bits(failed.param_values(), twin.param_values()));
    for (int step = 0; step < 3; ++step) {
      const double a = failed.train_batch(pointers(good), 0.5);
      const double b = twin.train_batch(pointers(good), 0.5);
      EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << "step " << step;
    }
    EXPECT_TRUE(same_bits(failed.param_values(), twin.param_values()));
  }
}

TEST(GroupedQNetwork, DoubleQStepUsesTheOnlineArgmax) {
  // Right after a target sync the online and target networks agree, so the
  // online argmax picks the same bootstrap action and a double-Q step equals
  // a plain one bit for bit. Once the online network has moved on without a
  // sync, the two bootstrap rules (and so the steps) differ.
  auto plain_opts = small_opts();
  auto double_opts = small_opts();
  double_opts.double_q = true;
  common::Rng rng_a(40), rng_b(40), data(41);
  GroupedQNetwork plain(plain_opts, rng_a);
  GroupedQNetwork dq(double_opts, rng_b);
  const std::vector<rl::Transition> ts = random_transitions(plain_opts, 32, data);
  const auto batch = pointers(ts);
  const double a = plain.train_batch(batch, 0.5);
  const double b = dq.train_batch(batch, 0.5);
  EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0);
  EXPECT_TRUE(same_bits(plain.param_values(), dq.param_values()));
  for (int step = 0; step < 20; ++step) {
    plain.train_batch(batch, 0.5);
    dq.train_batch(batch, 0.5);
  }
  EXPECT_FALSE(same_bits(plain.param_values(), dq.param_values()));
  EXPECT_TRUE(std::isfinite(dq.train_batch(batch, 0.5)));
}

TEST(GroupedQNetwork, DivergingStepThrowsNonFiniteError) {
  // One Adam step at learning rate 1e300 moves every Sub-Q weight by ~1e300;
  // the next step's bootstrap targets overflow. The step fails with the
  // named error instead of training on them.
  auto o = small_opts();
  o.learning_rate = 1e300;
  common::Rng rng(50), data(51);
  GroupedQNetwork net(o, rng);
  const std::vector<rl::Transition> ts = random_transitions(o, 8, data);
  EXPECT_TRUE(std::isfinite(net.train_batch(pointers(ts), 0.5)));
  net.sync_target();
  try {
    net.train_batch(pointers(ts), 0.5);
    FAIL() << "expected NonFiniteError";
  } catch (const NonFiniteError& e) {
    EXPECT_NE(std::string(e.what()).find("GroupedQNetwork"), std::string::npos) << e.what();
  }
}

TEST(GroupedQNetwork, ObserveStateTrainsAutoencoderEventually) {
  common::Rng rng(9);
  auto o = small_opts();
  GroupedQNetwork net(o, rng);
  common::Rng srng(10);
  common::Rng train_rng(11);
  double last = -1.0;
  for (int i = 0; i < 64; ++i) {
    const double loss = net.observe_state(random_state(o, srng), train_rng);
    if (loss >= 0.0) last = loss;
  }
  EXPECT_GE(last, 0.0) << "autoencoder batches should have run";
  EXPECT_GE(net.last_autoencoder_loss(), 0.0);
}

TEST(GroupedQNetwork, AutoencoderLossDecreasesOnStationaryStates) {
  common::Rng rng(12);
  auto o = small_opts();
  o.autoencoder_train_interval = 1;
  GroupedQNetwork net(o, rng);
  common::Rng srng(13);
  common::Rng train_rng(14);
  // A small fixed pool of states, fed repeatedly.
  std::vector<nn::Vec> pool;
  for (int i = 0; i < 8; ++i) pool.push_back(random_state(o, srng));
  double first = -1.0, last = -1.0;
  for (int i = 0; i < 600; ++i) {
    const double loss = net.observe_state(pool[static_cast<std::size_t>(i) % pool.size()],
                                          train_rng);
    if (loss >= 0.0) {
      if (first < 0.0) first = loss;
      last = loss;
    }
  }
  ASSERT_GE(first, 0.0);
  EXPECT_LT(last, first);
}

TEST(GroupedQNetwork, WeightSharingMeansOneSubQParamSet) {
  common::Rng rng(15);
  const auto o = small_opts();
  GroupedQNetwork net(o, rng);
  // 2 groups share one head: parameter count equals a single head's.
  const std::size_t expected = (net.head_input_dim() * o.subq_hidden + o.subq_hidden) +
                               (o.subq_hidden * o.encoder.group_size() + o.encoder.group_size());
  EXPECT_EQ(net.subq_param_count(), expected);
}

// With one group the single Sub-Q head reads [whole-cluster state, job
// state] and outputs all M Q-values: the monolithic feed-forward Q-network
// that §V-A argues against, which the DNN ablation bench builds this way.
TEST(GroupedQNetwork, OneGroupIsTheMonolithicQNetwork) {
  common::Rng rng(16);
  GroupedQOptions o;  // paper shape: M = 30, 128 hidden ELUs
  o.encoder.num_groups = 1;
  GroupedQNetwork net(o, rng);
  const std::size_t m = o.encoder.num_servers, s = net.state_dim();
  EXPECT_EQ(net.head_input_dim(), s);
  common::Rng srng(17);
  EXPECT_EQ(net.q_values(random_state(o, srng)).size(), m);
  EXPECT_EQ(net.subq_param_count(), s * 128 + 128 + 128 * m + m);
  EXPECT_EQ(net.subq_param_count(), 23710u);  // |s| = 30 * 5 + 4 = 154
}

}  // namespace
}  // namespace hcrl::core
