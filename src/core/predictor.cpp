#include "src/core/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/common/suggest.hpp"
#include "src/nn/init.hpp"
#include "src/nn/loss.hpp"
#include "src/nn/lstm.hpp"
#include "src/nn/network.hpp"
#include "src/nn/optimizer.hpp"
#include "src/telemetry/registry.hpp"

namespace hcrl::core {

SlidingMeanPredictor::SlidingMeanPredictor(std::size_t window, double prior_s)
    : window_(window), prior_(prior_s) {
  if (window == 0) throw std::invalid_argument("SlidingMeanPredictor: window must be > 0");
}

void SlidingMeanPredictor::observe(double interarrival_s) {
  values_.push_back(interarrival_s);
  sum_ += interarrival_s;
  if (values_.size() > window_) {
    sum_ -= values_.front();
    values_.pop_front();
  }
}

double SlidingMeanPredictor::predict() {
  if (values_.empty()) return prior_;
  return sum_ / static_cast<double>(values_.size());
}

WindowPredictor::WindowPredictor(std::size_t window, double prior_s) {
  if (window == 0) throw std::invalid_argument("WindowPredictor: window must be > 0");
  if (prior_s <= 0.0) throw std::invalid_argument("WindowPredictor: prior must be > 0");
  std::size_t n = 1;
  while (n < window) n <<= 1;
  ring_.assign(n, prior_s);
  mask_ = n - 1;
  sum_ = prior_s * static_cast<double>(n);
}

void WindowPredictor::observe(double interarrival_s) {
  if (interarrival_s < 0.0) throw std::invalid_argument("WindowPredictor: negative inter-arrival");
  sum_ -= ring_[next_];
  sum_ += interarrival_s;
  ring_[next_] = interarrival_s;
  next_ = (next_ + 1) & mask_;
}

ArPredictor::ArPredictor(std::size_t order, double prior_s, std::size_t refit_interval,
                         std::size_t history_capacity, double ridge)
    : order_(order),
      prior_(prior_s),
      refit_interval_(refit_interval),
      history_capacity_(history_capacity),
      ridge_(ridge) {
  if (order == 0) throw std::invalid_argument("ArPredictor: order must be > 0");
  if (refit_interval == 0) throw std::invalid_argument("ArPredictor: refit_interval must be > 0");
  if (history_capacity <= order + 1) {
    throw std::invalid_argument("ArPredictor: history_capacity too small");
  }
  if (ridge < 0.0) throw std::invalid_argument("ArPredictor: negative ridge");
}

void ArPredictor::observe(double interarrival_s) {
  if (interarrival_s < 0.0) throw std::invalid_argument("ArPredictor: negative inter-arrival");
  history_.push_back(interarrival_s);
  if (history_.size() > history_capacity_) history_.pop_front();
  if (++since_refit_ >= refit_interval_ && history_.size() > 3 * order_) {
    refit();
    since_refit_ = 0;
  }
}

void ArPredictor::refit() {
  // Solve (X^T X + ridge I) w = X^T y with X rows [1, x_{t-1}..x_{t-p}] by
  // Gaussian elimination; dimensions are tiny (p+1 <= ~9).
  const std::size_t p = order_;
  const std::size_t dim = p + 1;
  std::vector<double> a(dim * dim, 0.0);
  std::vector<double> b(dim, 0.0);
  for (std::size_t t = p; t < history_.size(); ++t) {
    std::vector<double> row(dim);
    row[0] = 1.0;
    for (std::size_t k = 0; k < p; ++k) row[k + 1] = history_[t - 1 - k];
    const double y = history_[t];
    for (std::size_t i = 0; i < dim; ++i) {
      b[i] += row[i] * y;
      for (std::size_t j = 0; j < dim; ++j) a[i * dim + j] += row[i] * row[j];
    }
  }
  for (std::size_t i = 0; i < dim; ++i) a[i * dim + i] += ridge_;

  // Gaussian elimination with partial pivoting.
  std::vector<std::size_t> perm(dim);
  for (std::size_t i = 0; i < dim; ++i) perm[i] = i;
  for (std::size_t col = 0; col < dim; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < dim; ++r) {
      if (std::abs(a[r * dim + col]) > std::abs(a[pivot * dim + col])) pivot = r;
    }
    if (std::abs(a[pivot * dim + col]) < 1e-12) return;  // singular: keep old fit
    if (pivot != col) {
      for (std::size_t j = 0; j < dim; ++j) std::swap(a[col * dim + j], a[pivot * dim + j]);
      std::swap(b[col], b[pivot]);
    }
    for (std::size_t r = col + 1; r < dim; ++r) {
      const double f = a[r * dim + col] / a[col * dim + col];
      for (std::size_t j = col; j < dim; ++j) a[r * dim + j] -= f * a[col * dim + j];
      b[r] -= f * b[col];
    }
  }
  std::vector<double> w(dim);
  for (std::size_t i = dim; i-- > 0;) {
    double acc = b[i];
    for (std::size_t j = i + 1; j < dim; ++j) acc -= a[i * dim + j] * w[j];
    w[i] = acc / a[i * dim + i];
  }
  coef_ = std::move(w);
  fitted_ = true;
}

double ArPredictor::predict() {
  if (!fitted_ || history_.size() < order_) return history_.empty() ? prior_ : history_.back();
  double y = coef_[0];
  for (std::size_t k = 0; k < order_; ++k) {
    y += coef_[k + 1] * history_[history_.size() - 1 - k];
  }
  return std::max(0.0, y);
}

void LstmPredictorOptions::validate() const {
  if (lookback == 0 || hidden_units == 0 || input_hidden == 0) {
    throw std::invalid_argument("LstmPredictor: zero-sized layer");
  }
  if (learning_rate <= 0.0) throw std::invalid_argument("LstmPredictor: bad learning rate");
  if (norm_scale_s <= 0.0 || prior_s <= 0.0) {
    throw std::invalid_argument("LstmPredictor: bad scale/prior");
  }
  if (history_capacity <= lookback + 1) {
    throw std::invalid_argument("LstmPredictor: history_capacity too small");
  }
  if (train_interval == 0 || train_windows == 0) {
    throw std::invalid_argument("LstmPredictor: train interval/windows must be > 0");
  }
}

namespace detail {

/// Precision-parameterized NN stack of the LSTM predictor: the input/output
/// dense layers, the LSTM cell and the optimizer. The facade owns the
/// (double-typed) normalized history and hands window positions down here.
template <class S>
class LstmNetCore {
 public:
  LstmNetCore(const LstmPredictorOptions& opts, common::Rng& rng) : opts_(opts) {
    // Paper §VI-A: input and output hidden layers initialized N(0, 1) with
    // bias 0.1; the LSTM state starts at zero.
    auto in_params = std::make_shared<nn::DenseParamsT<S>>(opts_.input_hidden, 1);
    nn::normal_init(in_params->W, rng, 0.0, 1.0);
    for (auto& b : in_params->b) b = S(0.1);
    input_layer_.add_shared_dense(in_params, nn::Activation::kIdentity);

    auto lstm_params = std::make_shared<nn::LstmParamsT<S>>(opts_.hidden_units,
                                                            opts_.input_hidden);
    nn::init_lstm(*lstm_params, rng);
    lstm_ = std::make_unique<nn::LstmT<S>>(lstm_params);

    auto out_params = std::make_shared<nn::DenseParamsT<S>>(1, opts_.hidden_units);
    nn::normal_init(out_params->W, rng, 0.0, 1.0);
    for (auto& b : out_params->b) b = S(0.1);
    output_layer_.add_shared_dense(out_params, nn::Activation::kIdentity);

    all_params_ = {in_params, lstm_params, out_params};
    optimizer_ = std::make_unique<nn::AdamT<S>>(all_params_,
                                                nn::AdamOptions{.lr = opts_.learning_rate});
  }

  /// Batched multi-window sweep; returns the *normalized* prediction per
  /// window (the facade denormalizes).
  std::vector<double> predict_windows(const std::deque<double>& history,
                                      const std::vector<std::size_t>& ends) {
    const std::size_t W = ends.size();
    lstm_->reset_batch(W);
    nn::MatrixT<S> h;
    for (std::size_t i = 0; i < opts_.lookback; ++i) {
      nn::MatrixT<S> raw(W, 1);
      for (std::size_t w = 0; w < W; ++w) {
        raw(w, 0) = static_cast<S>(history[ends[w] - opts_.lookback + i]);
      }
      h = lstm_->step_batch(input_layer_.predict_batch(std::move(raw)), /*keep_cache=*/false);
    }
    const nn::MatrixT<S> y = output_layer_.predict_batch(std::move(h));
    lstm_->reset();  // back to per-sample state for train_window
    std::vector<double> out(W);
    for (std::size_t w = 0; w < W; ++w) out[w] = static_cast<double>(y(w, 0));
    return out;
  }

  /// One supervised BPTT step on `window`: `lookback` normalized inputs
  /// followed by the target. Returns the squared error in normalized space;
  /// a non-finite one throws NonFiniteError before any weight changes.
  double train_window(std::span<const double> window) {
    // Training forward: per-sample (batch = 1) path, caches kept for BPTT.
    lstm_->reset();
    nn::VecT<S> h;
    for (std::size_t i = 0; i < opts_.lookback; ++i) {
      nn::VecT<S> x = input_layer_.forward(nn::VecT<S>{static_cast<S>(window[i])});
      h = lstm_->step(x);
    }
    const nn::VecT<S> y = output_layer_.forward(h);
    const S pred = y[0];
    const S target = static_cast<S>(window[opts_.lookback]);

    optimizer_->zero_grad();
    nn::LossResultT<S> loss = nn::mse_loss(nn::VecT<S>{pred}, nn::VecT<S>{target});
    if (!std::isfinite(loss.value)) {
      fail_nonfinite("local.nonfinite",
                     "LstmPredictor: training loss is " + std::to_string(loss.value));
    }
    // Loss is attached to the last step's output only (next-value
    // prediction); BPTT carries it back through every cached step.
    nn::VecT<S> dh = output_layer_.backward(loss.grad);
    std::vector<nn::VecT<S>> dh_list(opts_.lookback, nn::VecT<S>(opts_.hidden_units, S(0)));
    dh_list.back() = dh;
    std::vector<nn::VecT<S>> dx = lstm_->backward(dh_list);
    for (std::size_t i = dx.size(); i-- > 0;) {
      // LIFO: reverse order of the forwards; the raw-input gradient is unused.
      input_layer_.backward(dx[i], /*want_input_grad=*/false);
    }
    nn::clip_grad_norm(all_params_, opts_.grad_clip);
    optimizer_->step();
    return loss.value;
  }

 private:
  LstmPredictorOptions opts_;
  nn::NetworkT<S> input_layer_;
  std::unique_ptr<nn::LstmT<S>> lstm_;
  nn::NetworkT<S> output_layer_;
  std::unique_ptr<nn::AdamT<S>> optimizer_;
  std::vector<nn::ParamBlockPtrT<S>> all_params_;
};

template class LstmNetCore<float>;
template class LstmNetCore<double>;

}  // namespace detail

namespace {

telemetry::MetricId blocked_waits_metric() {
  static const telemetry::MetricId id =
      telemetry::global_registry().counter("local.train.blocked_waits");
  return id;
}

}  // namespace

LstmPredictor::LstmPredictor(const LstmPredictorOptions& opts) : opts_(opts), rng_(opts.seed) {
  opts_.validate();
  if (opts_.precision == nn::Precision::kF32) {
    f32_ = std::make_unique<detail::LstmNetCore<float>>(opts_, rng_);
  } else {
    f64_ = std::make_unique<detail::LstmNetCore<double>>(opts_, rng_);
  }
}

LstmPredictor::~LstmPredictor() {
  if (trainer_ != nullptr) trainer_->wait(last_round_);
}

void LstmPredictor::set_trainer(TrainerThread* trainer) {
  if (trainer_ != nullptr) trainer_->wait(last_round_);
  trainer_ = trainer;
  last_round_ = 0;
}

void LstmPredictor::sync() {
  if (last_round_ != 0) {
    if (trainer_->wait(last_round_)) telemetry::count(blocked_waits_metric());
    last_round_ = 0;
  }
  if (round_error_) std::rethrow_exception(std::exchange(round_error_, nullptr));
}

double LstmPredictor::normalize(double seconds) const {
  return std::log1p(std::max(0.0, seconds)) / std::log1p(opts_.norm_scale_s);
}

double LstmPredictor::denormalize(double z) const {
  return std::expm1(std::max(0.0, z) * std::log1p(opts_.norm_scale_s));
}

void LstmPredictor::observe(double interarrival_s) {
  if (interarrival_s < 0.0) throw std::invalid_argument("LstmPredictor: negative inter-arrival");
  history_.push_back(normalize(interarrival_s));
  if (history_.size() > opts_.history_capacity) history_.pop_front();
  ++total_observed_;
  if (total_observed_ % opts_.train_interval != 0 || history_.size() <= opts_.lookback + 1) {
    return;
  }
  // Draw the round's window ends and copy their values here, so the round
  // reads nothing observe() goes on to change.
  const auto lookback = static_cast<std::ptrdiff_t>(opts_.lookback);
  std::vector<double> windows;
  windows.reserve(opts_.train_windows * (opts_.lookback + 1));
  for (std::size_t w = 0; w < opts_.train_windows; ++w) {
    const auto end = rng_.uniform_int(lookback, static_cast<std::int64_t>(history_.size()) - 1);
    const auto last = history_.begin() + static_cast<std::ptrdiff_t>(end);
    windows.insert(windows.end(), last - lookback, last + 1);
  }
  auto round = [this, windows = std::move(windows)] {
    if (round_error_) return;  // a failed round drops the ones queued behind it
    try {
      train_round(windows);
    } catch (...) {
      round_error_ = std::current_exception();
    }
  };
  if (trainer_ != nullptr) {
    last_round_ = trainer_->submit(std::move(round));
  } else {
    round();
  }
}

double LstmPredictor::predict() {
  if (history_.size() < opts_.lookback) return opts_.prior_s;
  // Batch-of-one window through the batched sweep: same kernels, same result.
  return predict_windows({history_.size()}).front();
}

std::vector<double> LstmPredictor::predict_n(std::size_t n) {
  if (n == 0) return {};
  if (history_.size() < opts_.lookback) return std::vector<double>(n, opts_.prior_s);
  // n copies of the live window through ONE stacked sweep (batch = n). The
  // GEMM row-batch invariance (see nn/matrix.hpp) makes each entry
  // bit-identical to a lone predict() call.
  return predict_windows(std::vector<std::size_t>(n, history_.size()));
}

std::vector<double> LstmPredictor::predict_windows(const std::vector<std::size_t>& ends) {
  sync();
  if (ends.empty()) return {};
  for (const std::size_t end : ends) {
    if (end > history_.size() || end < opts_.lookback) {
      throw std::invalid_argument("LstmPredictor::predict_windows: bad window end");
    }
  }
  std::vector<double> out =
      f32_ ? f32_->predict_windows(history_, ends) : f64_->predict_windows(history_, ends);
  for (auto& v : out) {
    // denormalize() clamps at zero, which would turn a NaN into a 0 s gap.
    if (!std::isfinite(v)) {
      fail_nonfinite("local.nonfinite", "LstmPredictor: prediction is " + std::to_string(v));
    }
    v = denormalize(v);
  }
  return out;
}

double LstmPredictor::train_window(std::size_t end) {
  sync();
  if (end >= history_.size() || end < opts_.lookback) {
    throw std::invalid_argument("LstmPredictor::train_window: bad window end");
  }
  const auto last = history_.begin() + static_cast<std::ptrdiff_t>(end);
  const std::vector<double> window(last - static_cast<std::ptrdiff_t>(opts_.lookback), last + 1);
  return train_span(window);
}

double LstmPredictor::last_training_loss() {
  sync();
  return last_loss_;
}

double LstmPredictor::train_span(std::span<const double> window) {
  return f32_ ? f32_->train_window(window) : f64_->train_window(window);
}

void LstmPredictor::train_round(const std::vector<double>& windows) {
  const std::size_t span = opts_.lookback + 1;
  double total = 0.0;
  for (std::size_t w = 0; w < opts_.train_windows; ++w) {
    total += train_span(std::span<const double>(windows).subspan(w * span, span));
  }
  last_loss_ = total / static_cast<double>(opts_.train_windows);
}

std::unique_ptr<WorkloadPredictor> make_predictor(const std::string& kind,
                                                  const LstmPredictorOptions& lstm_opts) {
  if (kind == "lstm") return std::make_unique<LstmPredictor>(lstm_opts);
  if (kind == "last-value") return std::make_unique<LastValuePredictor>(lstm_opts.prior_s);
  if (kind == "sliding-mean") {
    return std::make_unique<SlidingMeanPredictor>(lstm_opts.lookback, lstm_opts.prior_s);
  }
  if (kind == "window") {
    return std::make_unique<WindowPredictor>(lstm_opts.lookback, lstm_opts.prior_s);
  }
  if (kind == "ar") {
    return std::make_unique<ArPredictor>(/*order=*/4, lstm_opts.prior_s);
  }
  throw std::invalid_argument(
      "make_predictor: " + common::unknown_key_message("predictor", kind, predictor_kinds()));
}

std::vector<std::string> predictor_kinds() {
  return {"lstm", "last-value", "sliding-mean", "window", "ar"};
}

}  // namespace hcrl::core
