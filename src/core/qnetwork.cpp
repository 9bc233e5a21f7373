#include "src/core/qnetwork.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <string>

#include "src/core/nonfinite.hpp"
#include "src/core/trainer_thread.hpp"
#include "src/nn/autoencoder.hpp"
#include "src/nn/loss.hpp"
#include "src/nn/network.hpp"
#include "src/nn/optimizer.hpp"
#include "src/nn/serialize.hpp"
#include "src/rl/smdp.hpp"

namespace hcrl::core {

void GroupedQOptions::validate() const {
  encoder.validate();
  if (autoencoder_dims.empty()) throw std::invalid_argument("GroupedQOptions: no AE dims");
  if (subq_hidden == 0) throw std::invalid_argument("GroupedQOptions: subq_hidden == 0");
  if (learning_rate <= 0.0 || autoencoder_learning_rate <= 0.0) {
    throw std::invalid_argument("GroupedQOptions: learning rates must be > 0");
  }
  if (autoencoder_batch == 0 || autoencoder_train_interval == 0 || autoencoder_buffer == 0) {
    throw std::invalid_argument("GroupedQOptions: autoencoder batch/interval/buffer must be > 0");
  }
}

namespace detail {

/// Precision-parameterized half of GroupedQNetwork: the autoencoder, the
/// online/target Sub-Q stacks, the optimizer and all the GEMM plumbing. The
/// decision-path scratch matrices live here and are reused across calls, so
/// one q_values() decision costs the network sweeps plus a single head
/// matrix staging — no per-head Vec assembly (the hot-hook allocation
/// cleanup of the decision epoch).
template <class S>
class GroupedQCore {
 public:
  GroupedQCore(const GroupedQOptions& opts, std::size_t head_input_dim, common::Rng& rng)
      : opts_(opts), head_input_dim_(head_input_dim) {
    nn::AutoencoderOptions ae_opts;
    ae_opts.encoder_dims = opts_.autoencoder_dims;
    ae_opts.learning_rate = opts_.autoencoder_learning_rate;
    ae_opts.grad_clip = opts_.grad_clip;
    autoencoder_ = std::make_unique<nn::AutoencoderT<S>>(opts_.encoder.group_state_dim(), ae_opts,
                                                         rng);
    online_subq_ = std::make_unique<nn::NetworkT<S>>(build_subq(rng));
    target_subq_ = std::make_unique<nn::NetworkT<S>>(build_subq(rng));
    sync_target();
    optimizer_ = std::make_unique<nn::AdamT<S>>(online_subq_->params(),
                                                nn::AdamOptions{.lr = opts_.learning_rate});
  }

  nn::Vec q_values(const nn::Vec& full_state) { return q_values_with(*online_subq_, full_state); }

  nn::Vec q_values_target(const nn::Vec& full_state) {
    return q_values_with(*target_subq_, full_state);
  }

  void q_values_batch(std::span<const nn::Vec* const> states, nn::Matrix& out) {
    q_values_batch_with(*online_subq_, states, out);
  }

  /// One gradient step. The bootstrap targets of transitions [0, split)
  /// are computed on the `dqn-bootstrap` helper while this thread computes
  /// the rest and then runs the online forward; it joins the helper before
  /// the Huber loss (and before unwinding on any error), so the backward
  /// pass, clip and Adam step see exactly the serial step's inputs.
  double train_batch(const std::vector<const rl::Transition*>& batch, double beta) {
    const auto& enc = opts_.encoder;
    const std::size_t n = batch.size();
    const std::size_t K = enc.num_groups;
    optimizer_->zero_grad();

    // The bootstrap part is ~70% of the two forward parts' MACs, so the
    // helper's ~2/3 of the rows balances it against this thread's share
    // plus the online forward.
    if (!helper_) helper_ = std::make_unique<TrainerThread>("dqn-bootstrap");
    const std::size_t split = (2 * n + 2) / 3;
    // Everything the helper touches or this thread fills before the join is
    // set up before the submit, so nothing between submit and join can
    // throw outside the try block below.
    nn::VecT<S> targets(n);
    std::vector<std::size_t> locals(n);
    nn::MatrixT<S> pred;
    std::exception_ptr helper_error, error;
    const TrainerThread::Ticket ticket = helper_->submit([&] {
      try {
        bootstrap_rows(batch, 0, split, beta, targets);
      } catch (...) {
        helper_error = std::current_exception();
      }
    });

    // Online pass: only the head owning each chosen action receives gradient;
    // weight sharing means the n rows still train the one physical Sub-Q
    // network, and the per-sample gradient sum folds into the backward GEMMs.
    try {
      bootstrap_rows(batch, split, n, beta, targets);
      nn::MatrixT<S> state_groups;
      state_groups.resize_for_overwrite(n * K, enc.group_state_dim());
      for (std::size_t b = 0; b < n; ++b) fill_group_rows(state_groups, b * K, batch[b]->state);
      const nn::MatrixT<S> state_codes = autoencoder_->encode_batch(std::move(state_groups));
      nn::MatrixT<S> pred_heads;
      pred_heads.resize_for_overwrite(n, head_input_dim_);
      for (std::size_t b = 0; b < n; ++b) {
        const std::size_t group = batch[b]->action / enc.group_size();
        fill_head_row(pred_heads, b, batch[b]->state, group, state_codes, b * K);
        locals[b] = batch[b]->action % enc.group_size();
      }
      pred = online_subq_->forward_batch(std::move(pred_heads));
    } catch (...) {
      error = std::current_exception();
    }
    helper_->wait(ticket);
    // The helper's rows come first, so its failure is the one a serial
    // sweep would have met first.
    if (helper_error) error = helper_error;
    if (error) {
      online_subq_->clear_cache();
      std::rethrow_exception(error);
    }

    const double inv_n = 1.0 / static_cast<double>(n);
    nn::BatchLossResultT<S> loss = nn::masked_huber_loss_batch(pred, locals, targets, S(1),
                                                               static_cast<S>(inv_n));
    if (!std::isfinite(loss.value)) {
      online_subq_->clear_cache();
      fail_nonfinite("global.nonfinite",
                     "GroupedQNetwork: Huber loss is " + std::to_string(loss.value));
    }
    online_subq_->backward_batch(loss.grad, /*want_input_grad=*/false);

    const double grad_norm = nn::clip_grad_norm(online_subq_->params(), opts_.grad_clip);
    if (!std::isfinite(grad_norm)) {
      fail_nonfinite("global.nonfinite",
                     "GroupedQNetwork: gradient norm is " + std::to_string(grad_norm));
    }
    optimizer_->step();
    return loss.value * inv_n;
  }

  void sync_target() { nn::copy_param_values(online_subq_->params(), target_subq_->params()); }

  double train_autoencoder(const std::vector<const nn::Vec*>& batch) {
    nn::MatrixT<S> X;
    X.resize_for_overwrite(batch.size(), opts_.encoder.group_state_dim());
    for (std::size_t b = 0; b < batch.size(); ++b) X.set_row_cast(b, *batch[b]);
    return autoencoder_->train_batch_matrix(X);
  }

  std::size_t subq_param_count() const { return online_subq_->param_count(); }
  std::size_t autoencoder_param_count() const { return autoencoder_->param_count(); }

  std::vector<nn::ParamBlockPtrT<S>> trainable_params() const {
    auto out = online_subq_->params();
    auto ae = autoencoder_->params();
    out.insert(out.end(), ae.begin(), ae.end());
    return out;
  }

 private:
  nn::NetworkT<S> build_subq(common::Rng& rng) const {
    // One fully-connected hidden layer of ELUs and a linear output with one
    // unit per server in the group (§VII-A).
    nn::NetworkT<S> net;
    net.add_dense(head_input_dim_, opts_.subq_hidden, nn::Activation::kElu, rng);
    net.add_dense(opts_.subq_hidden, opts_.encoder.group_size(), nn::Activation::kIdentity, rng);
    return net;
  }

  /// Bootstrap targets of transitions [b0, b1) into targets[b0..b1): all
  /// their next-state group encodes in one autoencoder sweep, then all their
  /// head rows in one target-network sweep (two when double Q-learning also
  /// needs the online network's argmax). GEMM rows are independent and each
  /// keeps its k-order (nn/matrix.hpp), so any split of [0, n) gives the
  /// one-sweep targets bit for bit. Both sweeps are predict_batch, which
  /// pushes no layer cache, so two threads may run this at once, beside the
  /// online forward_batch.
  void bootstrap_rows(const std::vector<const rl::Transition*>& batch, std::size_t b0,
                      std::size_t b1, double beta, nn::VecT<S>& targets) {
    if (b0 == b1) return;
    const auto& enc = opts_.encoder;
    const std::size_t K = enc.num_groups;
    const std::size_t rows = (b1 - b0) * K;
    nn::MatrixT<S> next_groups;
    next_groups.resize_for_overwrite(rows, enc.group_state_dim());
    for (std::size_t b = b0; b < b1; ++b) {
      fill_group_rows(next_groups, (b - b0) * K, batch[b]->next_state);
    }
    const nn::MatrixT<S> next_codes = autoencoder_->encode_batch(std::move(next_groups));
    nn::MatrixT<S> next_heads;
    next_heads.resize_for_overwrite(rows, head_input_dim_);
    for (std::size_t b = b0; b < b1; ++b) {
      for (std::size_t k = 0; k < K; ++k) {
        const std::size_t row = (b - b0) * K + k;
        fill_head_row(next_heads, row, batch[b]->next_state, k, next_codes, (b - b0) * K);
      }
    }
    nn::MatrixT<S> next_q_online;
    if (opts_.double_q) next_q_online = online_subq_->predict_batch(next_heads);
    const nn::MatrixT<S> next_q = target_subq_->predict_batch(std::move(next_heads));

    nn::VecT<S> q_next, q_online;
    for (std::size_t b = b0; b < b1; ++b) {
      // Reassemble this transition's K*group_size Q-vector from its K rows.
      const std::size_t row0 = (b - b0) * K;
      q_next.clear();
      for (std::size_t k = 0; k < K; ++k) {
        for (std::size_t a = 0; a < enc.group_size(); ++a) q_next.push_back(next_q(row0 + k, a));
      }
      S best_next;
      if (opts_.double_q) {
        q_online.clear();
        for (std::size_t k = 0; k < K; ++k) {
          for (std::size_t a = 0; a < enc.group_size(); ++a) {
            q_online.push_back(next_q_online(row0 + k, a));
          }
        }
        best_next = q_next[nn::argmax(q_online)];
      } else {
        best_next = q_next[nn::argmax(q_next)];
      }
      targets[b] = static_cast<S>(rl::smdp_target(batch[b]->reward_rate, batch[b]->tau, beta,
                                                  static_cast<double>(best_next)));
      if (!std::isfinite(targets[b])) {
        fail_nonfinite("global.nonfinite",
                       "GroupedQNetwork: bootstrap target is " + std::to_string(targets[b]));
      }
    }
  }

  /// Rows row0..row0+K-1 of `dst` = the K group slices of `full_state`.
  void fill_group_rows(nn::MatrixT<S>& dst, std::size_t row0, const nn::Vec& full_state) const {
    const auto& enc = opts_.encoder;
    if (full_state.size() != enc.full_state_dim()) {
      throw std::invalid_argument("GroupedQNetwork: bad state size");
    }
    const std::size_t g = enc.group_state_dim();
    for (std::size_t k = 0; k < enc.num_groups; ++k) {
      S* out = dst.data() + (row0 + k) * dst.cols();
      const double* src = full_state.data() + k * g;
      for (std::size_t i = 0; i < g; ++i) out[i] = static_cast<S>(src[i]);
    }
  }

  /// Row `row` of `dst` = head input of `group`: [g_k, s_j, codes of other
  /// groups]. `codes` holds one code per row; row `code_row0 + k` is group
  /// k's code. Writes in place — no per-head Vec staging.
  void fill_head_row(nn::MatrixT<S>& dst, std::size_t row, const nn::Vec& full_state,
                     std::size_t group, const nn::MatrixT<S>& codes,
                     std::size_t code_row0) const {
    const auto& enc = opts_.encoder;
    const std::size_t g = enc.group_state_dim();
    const std::size_t j = enc.job_state_dim();
    S* out = dst.data() + row * dst.cols();
    const double* gsrc = full_state.data() + group * g;
    for (std::size_t i = 0; i < g; ++i) *out++ = static_cast<S>(gsrc[i]);
    const double* jsrc = full_state.data() + (full_state.size() - j);
    for (std::size_t i = 0; i < j; ++i) *out++ = static_cast<S>(jsrc[i]);
    for (std::size_t k = 0; k < enc.num_groups; ++k) {
      if (k == group) continue;
      const S* code = codes.data() + (code_row0 + k) * codes.cols();
      for (std::size_t i = 0; i < codes.cols(); ++i) *out++ = code[i];
    }
  }

  nn::Vec q_values_with(nn::NetworkT<S>& subq, const nn::Vec& full_state) {
    nn::Matrix out;
    const nn::Vec* state = &full_state;
    q_values_batch_with(subq, {&state, 1}, out);
    return out.row(0);
  }

  /// B decision states through ONE autoencoder sweep (B*K group rows) and ONE
  /// Sub-Q sweep (B*K head rows), instead of B separate 2-sweep q_values()
  /// calls. Row b of `out` is the full |M|-action Q-vector of states[b],
  /// written in place — the decision epoch reads rows as spans, never
  /// assembling per-state Vecs. Single-panel GEMM row invariance (head input
  /// and hidden dims < one k-panel, see nn/matrix.hpp) makes each row
  /// bit-identical to a lone q_values() call.
  void q_values_batch_with(nn::NetworkT<S>& subq, std::span<const nn::Vec* const> states,
                           nn::Matrix& out) {
    const auto& enc = opts_.encoder;
    const std::size_t B = states.size();
    const std::size_t K = enc.num_groups;
    out.resize_for_overwrite(B, enc.num_servers);
    if (B == 0) return;
    // The staging matrices are written row-in-place straight from the states
    // (no per-head Vec assembly, one allocation each) and then move-consumed
    // by the sweeps, which recycle them as layer activations.
    nn::MatrixT<S> groups;
    groups.resize_for_overwrite(B * K, enc.group_state_dim());
    for (std::size_t b = 0; b < B; ++b) fill_group_rows(groups, b * K, *states[b]);
    const nn::MatrixT<S> codes = autoencoder_->encode_batch(std::move(groups));
    nn::MatrixT<S> heads;
    heads.resize_for_overwrite(B * K, head_input_dim_);
    for (std::size_t b = 0; b < B; ++b) {
      for (std::size_t k = 0; k < K; ++k) {
        fill_head_row(heads, b * K + k, *states[b], k, codes, b * K);
      }
    }
    const nn::MatrixT<S> head_q = subq.predict_batch(std::move(heads));
    for (std::size_t b = 0; b < B; ++b) {
      double* dst = out.data() + b * out.cols();
      for (std::size_t k = 0; k < K; ++k) {
        const S* src = head_q.data() + (b * K + k) * head_q.cols();
        for (std::size_t a = 0; a < enc.group_size(); ++a) *dst++ = static_cast<double>(src[a]);
      }
    }
  }

  GroupedQOptions opts_;
  std::size_t head_input_dim_;
  std::unique_ptr<nn::AutoencoderT<S>> autoencoder_;
  std::unique_ptr<nn::NetworkT<S>> online_subq_;
  std::unique_ptr<nn::NetworkT<S>> target_subq_;
  std::unique_ptr<nn::AdamT<S>> optimizer_;
  // Started at the first gradient step, so building a network spawns no
  // thread; every train_batch joins it before returning.
  std::unique_ptr<TrainerThread> helper_;
};

template class GroupedQCore<float>;
template class GroupedQCore<double>;

}  // namespace detail

GroupedQNetwork::GroupedQNetwork(const GroupedQOptions& opts, common::Rng& rng) : opts_(opts) {
  opts_.validate();
  const auto& enc = opts_.encoder;
  // The code dimension is the last encoder layer's width.
  head_input_dim_ = enc.group_state_dim() + enc.job_state_dim() +
                    (enc.num_groups - 1) * opts_.autoencoder_dims.back();
  if (opts_.precision == nn::Precision::kF32) {
    f32_ = std::make_unique<detail::GroupedQCore<float>>(opts_, head_input_dim_, rng);
  } else {
    f64_ = std::make_unique<detail::GroupedQCore<double>>(opts_, head_input_dim_, rng);
  }
  ae_buffer_.reserve(opts_.autoencoder_buffer);
}

GroupedQNetwork::~GroupedQNetwork() = default;
GroupedQNetwork::GroupedQNetwork(GroupedQNetwork&&) noexcept = default;
GroupedQNetwork& GroupedQNetwork::operator=(GroupedQNetwork&&) noexcept = default;

nn::Vec GroupedQNetwork::slice_group(const nn::Vec& full_state, std::size_t group) const {
  const auto& enc = opts_.encoder;
  if (group >= enc.num_groups) throw std::out_of_range("slice_group: bad group");
  if (full_state.size() != enc.full_state_dim()) {
    throw std::invalid_argument("slice_group: bad state size");
  }
  const std::size_t g = enc.group_state_dim();
  return nn::Vec(full_state.begin() + static_cast<std::ptrdiff_t>(group * g),
                 full_state.begin() + static_cast<std::ptrdiff_t>((group + 1) * g));
}

nn::Vec GroupedQNetwork::slice_job(const nn::Vec& full_state) const {
  const auto& enc = opts_.encoder;
  if (full_state.size() != enc.full_state_dim()) {
    throw std::invalid_argument("slice_job: bad state size");
  }
  return nn::Vec(full_state.end() - static_cast<std::ptrdiff_t>(enc.job_state_dim()),
                 full_state.end());
}

nn::Vec GroupedQNetwork::q_values(const nn::Vec& full_state) {
  return f32_ ? f32_->q_values(full_state) : f64_->q_values(full_state);
}

nn::Vec GroupedQNetwork::q_values_target(const nn::Vec& full_state) {
  return f32_ ? f32_->q_values_target(full_state) : f64_->q_values_target(full_state);
}

void GroupedQNetwork::q_values_batch(std::span<const nn::Vec* const> states, nn::Matrix& out) {
  if (f32_) {
    f32_->q_values_batch(states, out);
  } else {
    f64_->q_values_batch(states, out);
  }
}

double GroupedQNetwork::train_batch(const std::vector<const rl::Transition*>& batch,
                                    double beta) {
  if (batch.empty()) throw std::invalid_argument("GroupedQNetwork::train_batch: empty batch");
  return f32_ ? f32_->train_batch(batch, beta) : f64_->train_batch(batch, beta);
}

void GroupedQNetwork::sync_target() {
  if (f32_) {
    f32_->sync_target();
  } else {
    f64_->sync_target();
  }
}

std::size_t GroupedQNetwork::subq_param_count() const {
  return f32_ ? f32_->subq_param_count() : f64_->subq_param_count();
}

std::size_t GroupedQNetwork::autoencoder_param_count() const {
  return f32_ ? f32_->autoencoder_param_count() : f64_->autoencoder_param_count();
}

std::vector<double> GroupedQNetwork::param_values() const {
  return f32_ ? nn::flatten_param_values(f32_->trainable_params())
              : nn::flatten_param_values(f64_->trainable_params());
}

void GroupedQNetwork::save_params(std::ostream& out) const {
  if (f32_) {
    nn::save_params(out, f32_->trainable_params());
  } else {
    nn::save_params(out, f64_->trainable_params());
  }
}

void GroupedQNetwork::load_params(std::istream& in) {
  if (f32_) {
    nn::load_params(in, f32_->trainable_params());
    f32_->sync_target();
  } else {
    nn::load_params(in, f64_->trainable_params());
    f64_->sync_target();
  }
}

double GroupedQNetwork::observe_state(const nn::Vec& full_state, common::Rng& rng) {
  const auto& enc = opts_.encoder;
  for (std::size_t k = 0; k < enc.num_groups; ++k) {
    nn::Vec g = slice_group(full_state, k);
    if (ae_buffer_.size() < opts_.autoencoder_buffer) {
      ae_buffer_.push_back(std::move(g));
    } else {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(ae_buffer_.size()) - 1));
      ae_buffer_[idx] = std::move(g);  // reservoir-style replacement
    }
  }
  ++ae_seen_;
  if (ae_seen_ % opts_.autoencoder_train_interval != 0 ||
      ae_buffer_.size() < opts_.autoencoder_batch) {
    return -1.0;
  }
  // Sample by pointer: the rows are copied once, straight into the staging
  // matrix of the batched reconstruction pass.
  std::vector<const nn::Vec*> batch;
  batch.reserve(opts_.autoencoder_batch);
  for (std::size_t i = 0; i < opts_.autoencoder_batch; ++i) {
    const auto idx = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(ae_buffer_.size()) - 1));
    batch.push_back(&ae_buffer_[idx]);
  }
  last_ae_loss_ = f32_ ? f32_->train_autoencoder(batch) : f64_->train_autoencoder(batch);
  return last_ae_loss_;
}

}  // namespace hcrl::core
