#include "src/nn/loss.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace hcrl::nn {
namespace {

TEST(MseLoss, ValueAndGradient) {
  const LossResult r = mse_loss(Vec{1.0, 2.0}, Vec{0.0, 4.0});
  EXPECT_DOUBLE_EQ(r.value, (1.0 + 4.0) / 2.0);
  EXPECT_DOUBLE_EQ(r.grad[0], 2.0 * 1.0 / 2.0);
  EXPECT_DOUBLE_EQ(r.grad[1], 2.0 * -2.0 / 2.0);
}

TEST(MseLoss, ZeroAtTarget) {
  const LossResult r = mse_loss(Vec{3.0}, Vec{3.0});
  EXPECT_DOUBLE_EQ(r.value, 0.0);
  EXPECT_DOUBLE_EQ(r.grad[0], 0.0);
}

TEST(MseLoss, EmptyThrows) { EXPECT_THROW(mse_loss(Vec{}, Vec{}), std::invalid_argument); }

// masked_huber_loss_batch is the DQN step's loss: per row, Huber on the
// selected column only, gradient scaled by grad_scale.
TEST(MaskedHuberBatch, QuadraticAndLinearBranches) {
  // Row 0: |d| = 0.5 <= delta, quadratic. Row 1: d = 5 > delta, linear with
  // the gradient capped at delta. Row 2: d = -5, capped at -delta.
  Matrix pred(3, 2, 0.0);
  pred(0, 1) = 0.5;
  pred(1, 0) = 5.0;
  pred(2, 1) = -5.0;
  const BatchLossResult r =
      masked_huber_loss_batch(pred, {1, 0, 1}, Vec{0.0, 0.0, 0.0}, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(r.value, 0.5 * 0.25 + (5.0 - 0.5) + (5.0 - 0.5));
  EXPECT_DOUBLE_EQ(r.grad(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(r.grad(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(r.grad(2, 1), -1.0);
}

TEST(MaskedHuberBatch, UnselectedColumnsGetZeroGradient) {
  Matrix pred(2, 4, 7.0);
  const BatchLossResult r = masked_huber_loss_batch(pred, {2, 0}, Vec{6.5, 9.0}, 1.0, 1.0);
  ASSERT_EQ(r.grad.rows(), 2u);
  ASSERT_EQ(r.grad.cols(), 4u);
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t c = 0; c < 4; ++c) {
      if ((b == 0 && c == 2) || (b == 1 && c == 0)) continue;
      EXPECT_EQ(r.grad(b, c), 0.0) << b << "," << c;
    }
  }
  EXPECT_DOUBLE_EQ(r.grad(0, 2), 0.5);   // quadratic: d = 0.5
  EXPECT_DOUBLE_EQ(r.grad(1, 0), -1.0);  // linear: d = -2, capped
}

TEST(MaskedHuberBatch, ScaleMultipliesTheGradientNotTheValue) {
  Matrix pred(2, 1, 0.0);
  pred(0, 0) = 0.25;
  pred(1, 0) = 3.0;
  const BatchLossResult unit = masked_huber_loss_batch(pred, {0, 0}, Vec{0.0, 0.0}, 1.0, 1.0);
  const BatchLossResult half = masked_huber_loss_batch(pred, {0, 0}, Vec{0.0, 0.0}, 1.0, 0.5);
  EXPECT_DOUBLE_EQ(half.value, unit.value);
  EXPECT_DOUBLE_EQ(half.grad(0, 0), 0.125);
  EXPECT_DOUBLE_EQ(half.grad(1, 0), 0.5);
  // A wider delta moves row 1 into the quadratic branch.
  const BatchLossResult wide = masked_huber_loss_batch(pred, {0, 0}, Vec{0.0, 0.0}, 4.0, 0.5);
  EXPECT_DOUBLE_EQ(wide.value, 0.5 * 0.0625 + 0.5 * 9.0);
  EXPECT_DOUBLE_EQ(wide.grad(1, 0), 1.5);
}

TEST(MaskedHuberBatch, InvalidArgsThrow) {
  const Matrix pred(2, 3, 0.0);
  EXPECT_THROW(masked_huber_loss_batch(pred, {0, 3}, Vec{0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(masked_huber_loss_batch(pred, {0}, Vec{0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(masked_huber_loss_batch(pred, {0, 1}, Vec{0.0}), std::invalid_argument);
  EXPECT_THROW(masked_huber_loss_batch(pred, {0, 1}, Vec{0.0, 0.0}, 0.0), std::invalid_argument);
}

TEST(MaskedHuberBatch, FloatMatchesDoubleOnExactInputs) {
  MatrixT<float> pred(1, 2, 0.0f);
  pred(0, 1) = 0.5f;
  const BatchLossResultT<float> r =
      masked_huber_loss_batch(pred, {1}, VecT<float>{0.0f}, 1.0f, 0.5f);
  EXPECT_DOUBLE_EQ(r.value, 0.125);
  EXPECT_EQ(r.grad(0, 1), 0.25f);
  EXPECT_EQ(r.grad(0, 0), 0.0f);
}

}  // namespace
}  // namespace hcrl::nn
