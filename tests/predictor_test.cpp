#include "src/core/predictor.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <future>
#include <numbers>
#include <stdexcept>
#include <string>
#include <vector>

namespace hcrl::core {
namespace {

TEST(LastValuePredictor, ReturnsPriorThenLast) {
  LastValuePredictor p(600.0);
  EXPECT_DOUBLE_EQ(p.predict(), 600.0);
  p.observe(42.0);
  EXPECT_DOUBLE_EQ(p.predict(), 42.0);
  p.observe(7.0);
  EXPECT_DOUBLE_EQ(p.predict(), 7.0);
}

TEST(SlidingMeanPredictor, WindowedAverage) {
  SlidingMeanPredictor p(3, 100.0);
  EXPECT_DOUBLE_EQ(p.predict(), 100.0);
  p.observe(10.0);
  p.observe(20.0);
  EXPECT_DOUBLE_EQ(p.predict(), 15.0);
  p.observe(30.0);
  p.observe(40.0);  // evicts 10
  EXPECT_DOUBLE_EQ(p.predict(), 30.0);
}

TEST(SlidingMeanPredictor, OutlierSensitivityMotivatesLstm) {
  // The paper's §VI-A argument: one very long inter-arrival ruins a set of
  // subsequent linear predictions.
  SlidingMeanPredictor p(5, 10.0);
  for (int i = 0; i < 5; ++i) p.observe(10.0);
  p.observe(10000.0);
  EXPECT_GT(p.predict(), 1000.0);  // wildly off for the next few predictions
}

TEST(SlidingMeanPredictor, ZeroWindowThrows) {
  EXPECT_THROW(SlidingMeanPredictor(0), std::invalid_argument);
}

TEST(LstmPredictorOptions, Validation) {
  LstmPredictorOptions o;
  EXPECT_NO_THROW(o.validate());
  o.lookback = 0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = LstmPredictorOptions{};
  o.history_capacity = o.lookback;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = LstmPredictorOptions{};
  o.norm_scale_s = 0.0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
}

TEST(LstmPredictor, NormalizeDenormalizeRoundTrip) {
  LstmPredictorOptions o;
  LstmPredictor p(o);
  for (double x : {0.0, 1.0, 30.0, 600.0, 3600.0, 20000.0}) {
    EXPECT_NEAR(p.denormalize(p.normalize(x)), x, 1e-6 * std::max(1.0, x));
  }
}

TEST(LstmPredictor, PriorBeforeWarmup) {
  LstmPredictorOptions o;
  o.prior_s = 123.0;
  LstmPredictor p(o);
  EXPECT_DOUBLE_EQ(p.predict(), 123.0);
  p.observe(10.0);
  EXPECT_DOUBLE_EQ(p.predict(), 123.0);  // still fewer than lookback samples
}

TEST(LstmPredictor, RejectsNegativeInterArrival) {
  LstmPredictor p(LstmPredictorOptions{});
  EXPECT_THROW(p.observe(-1.0), std::invalid_argument);
}

TEST(LstmPredictor, PredictionIsFiniteAndNonNegative) {
  LstmPredictorOptions o;
  o.lookback = 10;
  LstmPredictor p(o);
  common::Rng rng(3);
  for (int i = 0; i < 100; ++i) p.observe(rng.exponential(1.0 / 60.0));
  const double pred = p.predict();
  EXPECT_TRUE(std::isfinite(pred));
  EXPECT_GE(pred, 0.0);
}

TEST(LstmPredictor, LearnsAlternatingPattern) {
  // Inter-arrivals alternate 30, 300, 30, 300, ... A linear window-mean
  // predictor is stuck at ~165 for every step; the LSTM should learn to
  // discriminate the two phases. We check training loss decreases strongly.
  LstmPredictorOptions o;
  o.lookback = 8;
  o.hidden_units = 12;
  o.train_interval = 1;
  o.train_windows = 2;
  o.learning_rate = 5e-3;
  LstmPredictor p(o);
  double early_loss = 0.0;
  int early_count = 0;
  for (int i = 0; i < 60; ++i) {
    p.observe(i % 2 == 0 ? 30.0 : 300.0);
    if (i >= 20 && i < 40 && p.last_training_loss() >= 0.0) {
      early_loss += p.last_training_loss();
      ++early_count;
    }
  }
  double late_loss = 0.0;
  int late_count = 0;
  for (int i = 60; i < 400; ++i) {
    p.observe(i % 2 == 0 ? 30.0 : 300.0);
    if (i >= 360) {
      late_loss += p.last_training_loss();
      ++late_count;
    }
  }
  ASSERT_GT(early_count, 0);
  ASSERT_GT(late_count, 0);
  EXPECT_LT(late_loss / late_count, 0.5 * early_loss / early_count);
}

TEST(LstmPredictor, AccuracyBeatsSlidingMeanOnPeriodicSignal) {
  // Downstream ablation (paper argument): LSTM vs the linear baseline on a
  // deterministic periodic inter-arrival pattern.
  LstmPredictorOptions o;
  o.lookback = 12;
  o.hidden_units = 16;
  o.train_interval = 1;
  o.train_windows = 3;
  o.learning_rate = 5e-3;
  LstmPredictor lstm(o);
  SlidingMeanPredictor mean(12, 100.0);

  auto signal = [](int i) { return i % 3 == 2 ? 600.0 : 60.0; };
  // Warm up both predictors.
  for (int i = 0; i < 900; ++i) {
    lstm.observe(signal(i));
    mean.observe(signal(i));
  }
  double lstm_err = 0.0, mean_err = 0.0;
  for (int i = 900; i < 960; ++i) {
    const double target = signal(i);
    lstm_err += std::abs(lstm.predict() - target);
    mean_err += std::abs(mean.predict() - target);
    lstm.observe(target);
    mean.observe(target);
  }
  EXPECT_LT(lstm_err, mean_err);
}

TEST(LstmPredictor, TrainWindowValidation) {
  LstmPredictorOptions o;
  o.lookback = 5;
  LstmPredictor p(o);
  for (int i = 0; i < 10; ++i) p.observe(10.0);
  EXPECT_THROW(p.train_window(3), std::invalid_argument);    // < lookback
  EXPECT_THROW(p.train_window(100), std::invalid_argument);  // past history
  EXPECT_GE(p.train_window(7), 0.0);
}

// ---- training rounds on a TrainerThread -----------------------------------

std::string hex(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

LstmPredictorOptions small_lstm(nn::Precision precision = nn::Precision::kF64) {
  LstmPredictorOptions o;
  o.lookback = 10;
  o.hidden_units = 8;
  o.train_interval = 4;
  o.train_windows = 3;
  o.precision = precision;
  return o;
}

/// Queues a task that holds the trainer until release(), so the rounds
/// queued after it wait and the test controls when they run.
class Gate {
 public:
  explicit Gate(TrainerThread& trainer) {
    trainer.submit([f = open_.get_future().share()] { f.wait(); });
  }
  ~Gate() { release(); }
  void release() {
    if (!released_) open_.set_value();
    released_ = true;
  }

 private:
  std::promise<void> open_;
  bool released_ = false;
};

class LstmTrainerParity : public ::testing::TestWithParam<nn::Precision> {};

TEST_P(LstmTrainerParity, MatchesInlineBitForBit) {
  TrainerThread trainer("lstm-trainer");
  LstmPredictor inline_p(small_lstm(GetParam()));
  LstmPredictor threaded(small_lstm(GetParam()));
  threaded.set_trainer(&trainer);
  common::Rng rng(5);
  for (int i = 1; i <= 2000; ++i) {
    const double x = rng.exponential(1.0 / 90.0);
    inline_p.observe(x);
    threaded.observe(x);
    // Read back only now and then, so many rounds queue between the waits.
    if (i % 97 == 0 || i == 2000) {
      ASSERT_EQ(hex(threaded.predict()), hex(inline_p.predict())) << "observation " << i;
      ASSERT_EQ(hex(threaded.last_training_loss()), hex(inline_p.last_training_loss()))
          << "observation " << i;
    }
  }
  EXPECT_GT(inline_p.last_training_loss(), 0.0);
  const std::vector<double> a = threaded.predict_n(3);
  const std::vector<double> b = inline_p.predict_n(3);
  for (std::size_t k = 0; k < a.size(); ++k) EXPECT_EQ(hex(a[k]), hex(b[k]));
}

INSTANTIATE_TEST_SUITE_P(Precisions, LstmTrainerParity,
                         ::testing::Values(nn::Precision::kF64, nn::Precision::kF32));

TEST(LstmTrainer, EveryAccessWaitsForTheQueuedRound) {
  using Access = std::function<double(LstmPredictor&)>;
  const std::vector<std::pair<const char*, Access>> accesses = {
      {"predict", [](LstmPredictor& p) { return p.predict(); }},
      {"predict_n", [](LstmPredictor& p) { return p.predict_n(2).back(); }},
      {"predict_windows", [](LstmPredictor& p) { return p.predict_windows({20, 40}).back(); }},
      {"train_window", [](LstmPredictor& p) { return p.train_window(30); }},
      {"last_training_loss", [](LstmPredictor& p) { return p.last_training_loss(); }},
      {"sync", [](LstmPredictor& p) { p.sync(); return p.last_training_loss(); }},
  };
  for (const auto& [name, access] : accesses) {
    SCOPED_TRACE(name);
    TrainerThread trainer("lstm-trainer");
    LstmPredictor inline_p(small_lstm());
    LstmPredictor threaded(small_lstm());
    threaded.set_trainer(&trainer);
    Gate gate(trainer);
    for (int i = 0; i < 48; ++i) {
      inline_p.observe(10.0 + i);
      threaded.observe(10.0 + i);
    }
    // Every round is queued behind the gate: the access must not finish.
    std::future<double> got = std::async(std::launch::async, [&, fn = access] { return fn(threaded); });
    EXPECT_EQ(got.wait_for(std::chrono::milliseconds(30)), std::future_status::timeout);
    gate.release();
    EXPECT_EQ(hex(got.get()), hex(access(inline_p)));
  }
}

TEST(LstmTrainer, DestroyingWithQueuedRoundsIsClean) {
  TrainerThread trainer("lstm-trainer");
  std::promise<void> destroyed;
  {
    Gate gate(trainer);
    auto p = std::make_unique<LstmPredictor>(small_lstm());
    p->set_trainer(&trainer);
    for (int i = 0; i < 400; ++i) p->observe(5.0 + i % 7);
    // The destructor waits for the queued rounds, which wait for the gate.
    auto done = std::async(std::launch::async, [&p] { p.reset(); });
    EXPECT_EQ(done.wait_for(std::chrono::milliseconds(30)), std::future_status::timeout);
    gate.release();
    done.get();
  }
  // Also with the rounds still running when the trainer itself goes.
  auto trainer2 = std::make_unique<TrainerThread>("lstm-trainer");
  auto p = std::make_unique<LstmPredictor>(small_lstm());
  p->set_trainer(trainer2.get());
  for (int i = 0; i < 400; ++i) p->observe(5.0 + i % 7);
  p.reset();
  trainer2.reset();
}

LstmPredictorOptions diverging_lstm() {
  LstmPredictorOptions o = small_lstm();
  o.learning_rate = 1e300;  // one Adam step moves every weight by ~1e300
  return o;
}

TEST(LstmTrainer, RoundFailureSurfacesAtTheNextAccess) {
  for (const bool threaded : {false, true}) {
    SCOPED_TRACE(threaded ? "trainer" : "inline");
    TrainerThread trainer("lstm-trainer");
    LstmPredictor p(diverging_lstm());
    if (threaded) p.set_trainer(&trainer);
    for (int i = 0; i < 200; ++i) EXPECT_NO_THROW(p.observe(30.0 + i % 5));  // never blocks
    EXPECT_THROW(p.predict(), NonFiniteError);
    // Surfaced once; later rounds run again (and fail again on the same
    // diverged weights, which the next access reports).
    for (int i = 0; i < 8; ++i) p.observe(30.0);
    EXPECT_THROW(p.sync(), NonFiniteError);
    for (int i = 0; i < 8; ++i) p.observe(30.0);
  }  // destroyed with a failure pending: discarded, no terminate
}

TEST(LstmTrainer, NonFiniteLossThrowsBeforeTheStep) {
  LstmPredictorOptions o = diverging_lstm();
  o.train_interval = 1000;  // no rounds: only the explicit steps below
  LstmPredictor p(o);
  for (int i = 0; i < 12; ++i) p.observe(30.0 + i);
  EXPECT_GE(p.train_window(11), 0.0);  // finite: takes the 1e300 step
  try {
    p.train_window(11);
    FAIL() << "expected NonFiniteError";
  } catch (const NonFiniteError& e) {
    EXPECT_NE(std::string(e.what()).find("training loss"), std::string::npos) << e.what();
  }
}

TEST(LstmTrainer, NonFinitePredictionThrowsInsteadOfAZeroGap) {
  // After one 1e300 step, the two input units reach +-1e300 and the gate
  // sums overflow to inf - inf = NaN. denormalize() would clamp that NaN
  // to a 0 s gap; the guard throws instead.
  LstmPredictorOptions o = diverging_lstm();
  o.input_hidden = 2;
  o.train_interval = 1000;
  LstmPredictor p(o);
  for (int i = 0; i < 12; ++i) p.observe(30.0 + i);
  EXPECT_GE(p.train_window(11), 0.0);
  try {
    p.predict();
    FAIL() << "expected NonFiniteError";
  } catch (const NonFiniteError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("prediction is"), std::string::npos) << what;
    EXPECT_NE(what.find("nan"), std::string::npos) << what;
  }
}

TEST(MakePredictor, FactoryDispatch) {
  LstmPredictorOptions o;
  EXPECT_EQ(make_predictor("lstm", o)->name(), "lstm");
  EXPECT_EQ(make_predictor("last-value", o)->name(), "last-value");
  EXPECT_EQ(make_predictor("sliding-mean", o)->name(), "sliding-mean");
  EXPECT_EQ(make_predictor("ar", o)->name(), "ar");
  EXPECT_THROW(make_predictor("nope", o), std::invalid_argument);
}

TEST(ArPredictor, ConstructionValidation) {
  EXPECT_THROW(ArPredictor(0), std::invalid_argument);
  EXPECT_THROW(ArPredictor(4, 600.0, 0), std::invalid_argument);
  EXPECT_THROW(ArPredictor(4, 600.0, 32, 5), std::invalid_argument);
  EXPECT_THROW(ArPredictor(4, 600.0, 32, 1024, -1.0), std::invalid_argument);
}

TEST(ArPredictor, FallsBackBeforeFitting) {
  ArPredictor p(4, 123.0);
  EXPECT_DOUBLE_EQ(p.predict(), 123.0);
  p.observe(50.0);
  EXPECT_DOUBLE_EQ(p.predict(), 50.0);  // last value until first refit
  EXPECT_FALSE(p.fitted());
}

TEST(ArPredictor, RecoversExactArOneProcess) {
  // x_t = 0.5 x_{t-1} + 20 exactly: after fitting, predictions must be
  // near-exact and coefficients close to the generating ones.
  ArPredictor p(2, 100.0, /*refit_interval=*/16);
  double x = 40.0;
  for (int i = 0; i < 400; ++i) {
    p.observe(x);
    x = 0.5 * x + 20.0;
  }
  ASSERT_TRUE(p.fitted());
  const double expected_next = 0.5 * x + 20.0;
  (void)expected_next;
  p.observe(x);
  EXPECT_NEAR(p.predict(), 0.5 * x + 20.0, 1.0);
}

TEST(ArPredictor, LearnsAlternatingPattern) {
  // 30, 300, 30, 300...: an AR(2) model captures this exactly
  // (x_t = x_{t-2}), unlike the sliding mean.
  ArPredictor ar(2, 100.0, 8);
  SlidingMeanPredictor mean(8, 100.0);
  for (int i = 0; i < 300; ++i) {
    const double v = i % 2 == 0 ? 30.0 : 300.0;
    ar.observe(v);
    mean.observe(v);
  }
  // Next value is 30 (i=300 even).
  EXPECT_NEAR(ar.predict(), 30.0, 5.0);
  EXPECT_NEAR(mean.predict(), 165.0, 5.0);  // the linear-mean failure mode
}

TEST(ArPredictor, RejectsNegativeObservation) {
  ArPredictor p(2);
  EXPECT_THROW(p.observe(-1.0), std::invalid_argument);
}

TEST(ArPredictor, PredictionsNeverNegative) {
  ArPredictor p(3, 10.0, 8);
  common::Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    p.observe(rng.exponential(0.1));
    EXPECT_GE(p.predict(), 0.0);
  }
}

}  // namespace
}  // namespace hcrl::core
