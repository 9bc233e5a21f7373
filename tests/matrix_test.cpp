#include "src/nn/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <stdexcept>
#include <string>

#include "src/common/rng.hpp"
#include "src/telemetry/registry.hpp"

namespace hcrl::nn {
namespace {

TEST(Matrix, ConstructionAndFill) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 1.5);
  }
  m.fill(0.0);
  EXPECT_DOUBLE_EQ(m(1, 2), 0.0);
}

TEST(Matrix, MultiplyKnownValues) {
  Matrix m(2, 3);
  // [1 2 3; 4 5 6] * [1 0 -1]^T = [-2, -2]
  m(0, 0) = 1; m(0, 1) = 2; m(0, 2) = 3;
  m(1, 0) = 4; m(1, 1) = 5; m(1, 2) = 6;
  Vec y;
  m.multiply({1.0, 0.0, -1.0}, y);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
}

TEST(Matrix, MultiplyTransposedKnownValues) {
  Matrix m(2, 3);
  m(0, 0) = 1; m(0, 1) = 2; m(0, 2) = 3;
  m(1, 0) = 4; m(1, 1) = 5; m(1, 2) = 6;
  Vec y;
  m.multiply_transposed({1.0, 1.0}, y);  // column sums
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
  EXPECT_DOUBLE_EQ(y[2], 9.0);
}

TEST(Matrix, AddOuterAccumulates) {
  Matrix m(2, 2, 1.0);
  m.add_outer({1.0, 2.0}, {3.0, 4.0});
  EXPECT_DOUBLE_EQ(m(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 7.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 9.0);
}

TEST(Matrix, ResizeReshapes) {
  Matrix m(1, 1, 2.0);
  m.resize(3, 4, 0.5);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_DOUBLE_EQ(m(2, 3), 0.5);
}

TEST(Matrix, SameShape) {
  EXPECT_TRUE(Matrix(2, 3).same_shape(Matrix(2, 3)));
  EXPECT_FALSE(Matrix(2, 3).same_shape(Matrix(3, 2)));
}

TEST(VecHelpers, AddAndAddInPlace) {
  Vec a = {1.0, 2.0};
  const Vec b = {3.0, -1.0};
  const Vec c = add(a, b);
  EXPECT_DOUBLE_EQ(c[0], 4.0);
  EXPECT_DOUBLE_EQ(c[1], 1.0);
  add_in_place(a, b);
  EXPECT_DOUBLE_EQ(a[0], 4.0);
}

TEST(VecHelpers, ScaleDotNorm) {
  Vec a = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(norm(a), 5.0);
  EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
  scale_in_place(a, 2.0);
  EXPECT_DOUBLE_EQ(a[1], 8.0);
}

TEST(VecHelpers, Concat) {
  const Vec a = {1.0}, b = {2.0, 3.0}, c = {};
  const Vec out = concat(std::vector<const Vec*>{&a, &b, &c});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[2], 3.0);
}

TEST(VecHelpers, ArgmaxFirstOnTies) {
  EXPECT_EQ(argmax(Vec{1.0, 5.0, 5.0, 2.0}), 1u);
  EXPECT_EQ(argmax(Vec{-3.0}), 0u);
  EXPECT_THROW(argmax(Vec{}), std::invalid_argument);
}

// --- GEMM kernels ---------------------------------------------------------

Matrix make(std::size_t rows, std::size_t cols, std::initializer_list<double> vals) {
  Matrix m(rows, cols);
  std::size_t i = 0;
  for (double v : vals) m.data()[i++] = v;
  return m;
}

void expect_matrix_eq(const Matrix& a, const Matrix& b, double tol = 1e-12) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      EXPECT_NEAR(a(r, c), b(r, c), tol) << "(" << r << "," << c << ")";
    }
  }
}

TEST(Gemm, GoldenSmallProduct) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  const Matrix A = make(2, 2, {1, 2, 3, 4});
  const Matrix B = make(2, 2, {5, 6, 7, 8});
  Matrix C;
  gemm(A, B, C);
  expect_matrix_eq(C, make(2, 2, {19, 22, 43, 50}));
}

TEST(Gemm, GoldenRectangular) {
  // (2x3) * (3x2)
  const Matrix A = make(2, 3, {1, 2, 3, 4, 5, 6});
  const Matrix B = make(3, 2, {7, 8, 9, 10, 11, 12});
  Matrix C;
  gemm(A, B, C);
  expect_matrix_eq(C, make(2, 2, {58, 64, 139, 154}));
}

TEST(Gemm, TransposeVariantsMatchExplicitTranspose) {
  common::Rng rng(3);
  auto rand_matrix = [&rng](std::size_t r, std::size_t c) {
    Matrix m(r, c);
    for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform(-1.0, 1.0);
    return m;
  };
  auto transpose = [](const Matrix& m) {
    Matrix t(m.cols(), m.rows());
    for (std::size_t r = 0; r < m.rows(); ++r) {
      for (std::size_t c = 0; c < m.cols(); ++c) t(c, r) = m(r, c);
    }
    return t;
  };
  for (int trial = 0; trial < 5; ++trial) {
    const auto m = 1 + static_cast<std::size_t>(rng.uniform_int(0, 6));
    const auto k = 1 + static_cast<std::size_t>(rng.uniform_int(0, 6));
    const auto n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 6));
    const Matrix At = rand_matrix(k, m);  // A^T stored; A = transpose(At)
    const Matrix B = rand_matrix(k, n);
    Matrix via_tn, via_plain;
    gemm_tn(At, B, via_tn);
    gemm(transpose(At), B, via_plain);
    expect_matrix_eq(via_tn, via_plain);

    const Matrix A2 = rand_matrix(m, k);
    const Matrix Bt = rand_matrix(n, k);  // B^T stored
    Matrix via_nt, via_plain2;
    gemm_nt(A2, Bt, via_nt);
    gemm(A2, transpose(Bt), via_plain2);
    expect_matrix_eq(via_nt, via_plain2);
  }
}

TEST(Gemm, AccumulateAddsIntoExisting) {
  const Matrix A = make(1, 2, {1, 2});
  const Matrix B = make(2, 1, {3, 4});
  Matrix C(1, 1, 100.0);
  gemm(A, B, C, /*accumulate=*/true);
  EXPECT_DOUBLE_EQ(C(0, 0), 111.0);  // 100 + 1*3 + 2*4
}

TEST(Gemm, ShapeMismatchThrows) {
  const Matrix A(2, 3), B(2, 3);  // inner dims disagree for plain product
  Matrix C;
  EXPECT_THROW(gemm(A, B, C), std::invalid_argument);
  const Matrix D(4, 3);
  EXPECT_THROW(gemm_tn(A, D, C), std::invalid_argument);  // A rows != D rows
  const Matrix E(4, 5);
  EXPECT_THROW(gemm_nt(A, E, C), std::invalid_argument);  // A cols != E cols
  Matrix F(9, 9, 1.0);
  EXPECT_THROW(gemm(A, Matrix(3, 2), F, /*accumulate=*/true), std::invalid_argument);
}

TEST(Gemm, IdentityIsNeutral) {
  common::Rng rng(5);
  Matrix A(4, 4);
  for (std::size_t i = 0; i < A.size(); ++i) A.data()[i] = rng.uniform(-3.0, 3.0);
  Matrix I(4, 4, 0.0);
  for (std::size_t i = 0; i < 4; ++i) I(i, i) = 1.0;
  Matrix L, R;
  gemm(I, A, L);
  gemm(A, I, R);
  expect_matrix_eq(L, A);
  expect_matrix_eq(R, A);
}

TEST(Gemm, AssociativityProperty) {
  // (A B) C == A (B C) for random matrices, to numerical tolerance.
  common::Rng rng(6);
  auto rand_matrix = [&rng](std::size_t r, std::size_t c) {
    Matrix m(r, c);
    for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform(-1.0, 1.0);
    return m;
  };
  for (int trial = 0; trial < 5; ++trial) {
    const auto d1 = 1 + static_cast<std::size_t>(rng.uniform_int(0, 7));
    const auto d2 = 1 + static_cast<std::size_t>(rng.uniform_int(0, 7));
    const auto d3 = 1 + static_cast<std::size_t>(rng.uniform_int(0, 7));
    const auto d4 = 1 + static_cast<std::size_t>(rng.uniform_int(0, 7));
    const Matrix A = rand_matrix(d1, d2), B = rand_matrix(d2, d3), C = rand_matrix(d3, d4);
    Matrix AB, AB_C, BC, A_BC;
    gemm(A, B, AB);
    gemm(AB, C, AB_C);
    gemm(B, C, BC);
    gemm(A, BC, A_BC);
    expect_matrix_eq(AB_C, A_BC, 1e-10);
  }
}

TEST(Gemm, BatchOneMatchesMatrixVectorKernels) {
  // The per-sample kernels and the batch-1 GEMMs must agree exactly.
  common::Rng rng(7);
  Matrix W(5, 3);
  for (std::size_t i = 0; i < W.size(); ++i) W.data()[i] = rng.uniform(-2.0, 2.0);
  Vec x = {0.3, -1.2, 2.5};

  Vec y;
  W.multiply(x, y);
  Matrix Y;
  gemm_nt(Matrix::from_row(x), W, Y);  // (1x3) * (5x3)^T = (1x5)
  for (std::size_t j = 0; j < 5; ++j) EXPECT_DOUBLE_EQ(Y(0, j), y[j]);

  Vec dy = {1.0, -0.5, 0.25, 2.0, -1.5};
  Vec dx;
  W.multiply_transposed(dy, dx);
  Matrix dX;
  gemm(Matrix::from_row(dy), W, dX);  // (1x5) * (5x3) = (1x3)
  for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(dX(0, j), dx[j]);

  Matrix gW(5, 3, 0.0), gW_ref(5, 3, 0.0);
  gW_ref.add_outer(dy, x);
  gemm_tn(Matrix::from_row(dy), Matrix::from_row(x), gW, /*accumulate=*/true);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(gW(r, c), gW_ref(r, c));
  }
}

template <class S>
bool same_bits(S x, S y) {
  return std::memcmp(&x, &y, sizeof x) == 0;
}

template <class S>
void check_small_batch_nt() {
  // Below the tile height gemm_nt takes its small-batch kernel: vector lanes
  // across output columns plus scalar tail columns. Every element must equal
  // the k-ordered scalar dot (0 + p0 + p1 + ...) with one store or add into
  // C, bit for bit, for every row count, column tail and k length.
  common::Rng rng(21);
  for (const std::size_t m : {1u, 2u, 3u}) {
    for (const std::size_t kk : {0u, 1u, 5u, 30u, 84u}) {
      for (const std::size_t n : {1u, 3u, 7u, 8u, 9u, 15u, 17u, 33u, 128u}) {
        for (const bool accumulate : {false, true}) {
          SCOPED_TRACE(testing::Message() << m << "x" << kk << "x" << n << " acc=" << accumulate);
          MatrixT<S> A(m, kk), B(n, kk), C(m, n);
          for (MatrixT<S>* M : {&A, &B, &C}) {
            for (std::size_t i = 0; i < M->size(); ++i) {
              M->data()[i] = static_cast<S>(rng.uniform(-2, 2));
            }
          }
          MatrixT<S> expected = C;
          for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
              S acc = S(0);
              for (std::size_t k = 0; k < kk; ++k) acc += A(i, k) * B(j, k);
              expected(i, j) = accumulate ? expected(i, j) + acc : acc;
            }
          }
          gemm_nt(A, B, C, accumulate);
          for (std::size_t i = 0; i < C.size(); ++i) {
            ASSERT_TRUE(same_bits(C.data()[i], expected.data()[i])) << "element " << i;
          }
        }
      }
    }
  }
}

TEST(Gemm, SmallBatchNtMatchesKOrderedDotBitForBit) {
  check_small_batch_nt<double>();
  check_small_batch_nt<float>();
}

enum class GemmOp { kNN, kTN, kNT };

// Restores the process-wide kernel ISA when a test that pins it ends.
class GemmIsaGuard {
 public:
  GemmIsaGuard() : saved_(gemm_isa()) {}
  ~GemmIsaGuard() { set_gemm_isa(saved_); }
  GemmIsaGuard(const GemmIsaGuard&) = delete;
  GemmIsaGuard& operator=(const GemmIsaGuard&) = delete;

 private:
  GemmIsa saved_;
};

template <class S>
void check_isas_against_k_ordered_reference() {
  // Each output element is the k-ordered chain 0 + p0 + p1 + ... landing on
  // C with one store or add, whatever the kernel's vector width. Shapes
  // cover full and partial-width tiles, edge rows (m % 4 != 0), the
  // small-batch paths (m < 4) and the panel path (kk or n past one panel).
  // The panel path splits each chain at Panel::kK (192 at f64, 256 at f32)
  // and adds the partial sums into C in k order; the small-batch gemm
  // (overwrite) and gemm_nt paths run one unbroken chain.
  const std::size_t panel_k = sizeof(S) == sizeof(double) ? 192 : 256;
  GemmIsaGuard guard;
  common::Rng rng(23);
  for (const GemmOp op : {GemmOp::kNN, GemmOp::kTN, GemmOp::kNT}) {
    for (const std::size_t m : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 96u}) {
      for (const std::size_t n : {1u,  2u,  3u,  4u,  5u,  6u,  7u,  8u,   9u,   10u, 11u,
                                  12u, 13u, 14u, 15u, 16u, 17u, 30u, 84u, 128u, 300u}) {
        for (const std::size_t kk : {0u, 1u, 5u, 84u, 200u}) {
          for (const bool accumulate : {false, true}) {
            SCOPED_TRACE(testing::Message() << "op " << static_cast<int>(op) << " " << m << "x"
                                            << kk << "x" << n << " acc=" << accumulate);
            MatrixT<S> A = op == GemmOp::kTN ? MatrixT<S>(kk, m) : MatrixT<S>(m, kk);
            MatrixT<S> B = op == GemmOp::kNT ? MatrixT<S>(n, kk) : MatrixT<S>(kk, n);
            MatrixT<S> C0(m, n);
            for (MatrixT<S>* M : {&A, &B, &C0}) {
              for (std::size_t i = 0; i < M->size(); ++i) {
                M->data()[i] = static_cast<S>(rng.uniform(-2, 2));
              }
            }
            auto a = [&](std::size_t i, std::size_t k) { return op == GemmOp::kTN ? A(k, i) : A(i, k); };
            auto b = [&](std::size_t k, std::size_t j) { return op == GemmOp::kNT ? B(j, k) : B(k, j); };
            const bool unbroken = m < 4 && (op == GemmOp::kNT || (op == GemmOp::kNN && !accumulate));
            const std::size_t block = unbroken ? kk + 1 : panel_k;
            MatrixT<S> expected = C0;
            for (std::size_t i = 0; i < m; ++i) {
              for (std::size_t j = 0; j < n; ++j) {
                S& out = expected(i, j);
                if (!accumulate) out = S(0);
                for (std::size_t k0 = 0; k0 == 0 || k0 < kk; k0 += block) {
                  S chain = S(0);
                  for (std::size_t k = k0; k < std::min(kk, k0 + block); ++k) chain += a(i, k) * b(k, j);
                  out = !accumulate && k0 == 0 ? chain : out + chain;
                }
              }
            }
            for (const GemmIsa isa : {GemmIsa::kSse2, GemmIsa::kAvx2}) {
              set_gemm_isa(isa);
              MatrixT<S> C = C0;
              switch (op) {
                case GemmOp::kNN: gemm(A, B, C, accumulate); break;
                case GemmOp::kTN: gemm_tn(A, B, C, accumulate); break;
                case GemmOp::kNT: gemm_nt(A, B, C, accumulate); break;
              }
              for (std::size_t i = 0; i < C.size(); ++i) {
                ASSERT_TRUE(same_bits(C.data()[i], expected.data()[i]))
                    << "isa " << static_cast<int>(gemm_isa()) << " element " << i;
              }
            }
          }
        }
      }
    }
  }
}

TEST(Gemm, EveryKernelIsaMatchesKOrderedReferenceBitForBit) {
  // On a CPU without AVX2 the second pass re-runs the 16-byte kernel.
  check_isas_against_k_ordered_reference<double>();
  check_isas_against_k_ordered_reference<float>();
}

TEST(Gemm, IsaSettingFollowsTheCpuAndTheEnvironment) {
#if defined(__x86_64__) || defined(__i386__)
  const GemmIsa widest = __builtin_cpu_supports("avx2") ? GemmIsa::kAvx2 : GemmIsa::kSse2;
#else
  const GemmIsa widest = GemmIsa::kSse2;
#endif
  // Every test that pins the ISA restores it, so this is the start-up value.
  const char* env = std::getenv("HCRL_GEMM_ISA");
  const bool forced_sse2 = env != nullptr && std::string(env) == "sse2";
  EXPECT_EQ(gemm_isa(), forced_sse2 ? GemmIsa::kSse2 : widest);
  GemmIsaGuard guard;
  set_gemm_isa(GemmIsa::kSse2);
  EXPECT_EQ(gemm_isa(), GemmIsa::kSse2);
  set_gemm_isa(GemmIsa::kAvx2);  // falls back to kSse2 without AVX2
  EXPECT_EQ(gemm_isa(), widest);
}

TEST(Gemm, EveryEntryPointIsCounted) {
  // nn.gemm.calls/macs count each gemm/gemm_nt/gemm_tn call, the
  // small-batch paths included.
  auto& reg = telemetry::global_registry();
  auto counts = [&] {
    const telemetry::RegistrySnapshot snap = reg.snapshot();
    const telemetry::MetricValue* calls = snap.find("nn.gemm.calls");
    const telemetry::MetricValue* macs = snap.find("nn.gemm.macs");
    return std::pair<std::uint64_t, std::uint64_t>{calls ? calls->count : 0,
                                                   macs ? macs->count : 0};
  };
  Matrix row(1, 6, 0.5), W(4, 6, 0.25), tall(8, 6, 1.0), dY(8, 4, 1.0), C, D;
  telemetry::set_enabled(true);
  const auto before = counts();
  gemm_nt(row, W, C);   // small-batch nt: 1 x 6 x 4
  gemm(C, W, D);        // small-batch nn: 1 x 4 x 6
  gemm_nt(tall, W, C);  // tiled nt: 8 x 6 x 4
  gemm_tn(dY, tall, C); // tn: 4 x 8 x 6
  const auto after = counts();
  telemetry::set_enabled(false);
  EXPECT_EQ(after.first - before.first, 4u);
  EXPECT_EQ(after.second - before.second, 24u + 24u + 192u + 192u);
}

TEST(MatrixRowHelpers, FromRowsRowSetRowColSums) {
  const Matrix m = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}});
  ASSERT_EQ(m.rows(), 3u);
  ASSERT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
  const Vec r1 = m.row(1);
  EXPECT_DOUBLE_EQ(r1[0], 3.0);

  Matrix n(2, 2, 0.0);
  n.set_row(1, {7.0, 8.0});
  EXPECT_DOUBLE_EQ(n(1, 1), 8.0);
  n.add_row_broadcast({1.0, 1.0});
  EXPECT_DOUBLE_EQ(n(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(n(1, 0), 8.0);

  Vec sums(2, 10.0);
  m.add_col_sums_into(sums);
  EXPECT_DOUBLE_EQ(sums[0], 19.0);  // 10 + 1+3+5
  EXPECT_DOUBLE_EQ(sums[1], 22.0);  // 10 + 2+4+6

  EXPECT_THROW(Matrix::from_rows({{1.0}, {1.0, 2.0}}), std::invalid_argument);
}

}  // namespace
}  // namespace hcrl::nn
