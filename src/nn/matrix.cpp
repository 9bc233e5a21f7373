#include "src/nn/matrix.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "src/telemetry/registry.hpp"
#include "src/telemetry/trace.hpp"

namespace hcrl::nn {

template <class Scalar>
MatrixT<Scalar>::MatrixT(std::size_t rows, std::size_t cols, Scalar fill) {
  resize(rows, cols, fill);
}

template <class Scalar>
MatrixT<Scalar>::MatrixT(const MatrixT& other) {
  resize_for_overwrite(other.rows_, other.cols_);
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) data_[i] = other.data_[i];
}

template <class Scalar>
MatrixT<Scalar>::MatrixT(MatrixT&& other) noexcept
    : rows_(other.rows_),
      cols_(other.cols_),
      capacity_(other.capacity_),
      data_(std::move(other.data_)) {
  other.rows_ = other.cols_ = other.capacity_ = 0;
}

template <class Scalar>
MatrixT<Scalar>& MatrixT<Scalar>::operator=(const MatrixT& other) {
  if (this == &other) return *this;
  resize_for_overwrite(other.rows_, other.cols_);
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) data_[i] = other.data_[i];
  return *this;
}

template <class Scalar>
MatrixT<Scalar>& MatrixT<Scalar>::operator=(MatrixT&& other) noexcept {
  if (this == &other) return *this;
  rows_ = other.rows_;
  cols_ = other.cols_;
  capacity_ = other.capacity_;
  data_ = std::move(other.data_);
  other.rows_ = other.cols_ = other.capacity_ = 0;
  return *this;
}

template <class Scalar>
void MatrixT<Scalar>::fill(Scalar v) noexcept {
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) data_[i] = v;
}

template <class Scalar>
void MatrixT<Scalar>::resize(std::size_t rows, std::size_t cols, Scalar fill_value) {
  resize_for_overwrite(rows, cols);
  fill(fill_value);
}

template <class Scalar>
void MatrixT<Scalar>::resize_for_overwrite(std::size_t rows, std::size_t cols) {
  const std::size_t n = rows * cols;
  if (n > capacity_) {
    data_ = std::make_unique_for_overwrite<Scalar[]>(n);
    capacity_ = n;
  }
  rows_ = rows;
  cols_ = cols;
}

template <class Scalar>
void MatrixT<Scalar>::multiply(const VecT<Scalar>& x, VecT<Scalar>& y) const {
  assert(x.size() == cols_);
  y.assign(rows_, Scalar(0));
  const Scalar* w = data_.get();
  for (std::size_t r = 0; r < rows_; ++r) {
    Scalar acc = Scalar(0);
    const Scalar* row = w + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
}

template <class Scalar>
void MatrixT<Scalar>::multiply_transposed(const VecT<Scalar>& x, VecT<Scalar>& y) const {
  assert(x.size() == rows_);
  y.assign(cols_, Scalar(0));
  const Scalar* w = data_.get();
  for (std::size_t r = 0; r < rows_; ++r) {
    const Scalar xr = x[r];
    if (xr == Scalar(0)) continue;
    const Scalar* row = w + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) y[c] += row[c] * xr;
  }
}

template <class Scalar>
void MatrixT<Scalar>::add_outer(const VecT<Scalar>& a, const VecT<Scalar>& b) {
  assert(a.size() == rows_ && b.size() == cols_);
  Scalar* w = data_.get();
  for (std::size_t r = 0; r < rows_; ++r) {
    const Scalar ar = a[r];
    if (ar == Scalar(0)) continue;
    Scalar* row = w + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) row[c] += ar * b[c];
  }
}

template <class Scalar>
std::string MatrixT<Scalar>::shape_string() const {
  std::ostringstream os;
  os << rows_ << "x" << cols_;
  return os.str();
}

template <class Scalar>
MatrixT<Scalar> MatrixT<Scalar>::from_row(const VecT<Scalar>& x) {
  MatrixT m(1, x.size());
  for (std::size_t c = 0; c < x.size(); ++c) m.data_[c] = x[c];
  return m;
}

template <class Scalar>
MatrixT<Scalar> MatrixT<Scalar>::from_rows(const std::vector<VecT<Scalar>>& rows) {
  if (rows.empty()) return MatrixT();
  MatrixT m(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != m.cols_) {
      throw std::invalid_argument("Matrix::from_rows: ragged row lengths");
    }
    for (std::size_t c = 0; c < m.cols_; ++c) m.data_[r * m.cols_ + c] = rows[r][c];
  }
  return m;
}

template <class Scalar>
VecT<Scalar> MatrixT<Scalar>::row(std::size_t r) const {
  assert(r < rows_);
  const Scalar* src = data_.get() + r * cols_;
  return VecT<Scalar>(src, src + cols_);
}

template <class Scalar>
void MatrixT<Scalar>::set_row(std::size_t r, const VecT<Scalar>& x) {
  assert(r < rows_ && x.size() == cols_);
  Scalar* dst = data_.get() + r * cols_;
  for (std::size_t c = 0; c < cols_; ++c) dst[c] = x[c];
}

template <class Scalar>
void MatrixT<Scalar>::add_row_broadcast(const VecT<Scalar>& b) {
  assert(b.size() == cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    Scalar* dst = data_.get() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) dst[c] += b[c];
  }
}

template <class Scalar>
void MatrixT<Scalar>::add_col_sums_into(VecT<Scalar>& out) const {
  assert(out.size() == cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    const Scalar* src = data_.get() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) out[c] += src[c];
  }
}

template class MatrixT<float>;
template class MatrixT<double>;

namespace {

// The micro-kernel runs on GNU vector extensions (gcc/clang): explicit
// lane-wise multiply-adds keep the accumulator tile in vector registers and
// sidestep the autovectorizer's shuffle-heavy k-direction gather. On x86 a
// 32-byte clone is compiled beside the 16-byte baseline and picked at run
// time; other targets run the baseline alone.
#if defined(__x86_64__) || defined(__i386__)
#define HCRL_GEMM_HAVE_AVX2 1
#else
#define HCRL_GEMM_HAVE_AVX2 0
#endif

// Register-tile shape of the shared micro-kernel: 4 rows x 64 bytes of
// accumulator per row (four 16-byte or two 32-byte vectors). A float lane is
// half as wide as a double lane, so the f32 tile doubles its N extent (4x16
// vs 4x8) while filling the same vector registers — the "wider micro-tile"
// of the f32 mode. The shape is the same at every vector width, so the
// choice of kernel ISA cannot change which products an element sums.
template <class S>
struct Tile {
  static constexpr std::size_t kM = 4;
  static constexpr std::size_t kN = 8;
};
template <>
struct Tile<float> {
  static constexpr std::size_t kM = 4;
  static constexpr std::size_t kN = 16;
};

// L2 panel blocks for large shapes: a (kK x kN) panel of bkn stays
// cache-resident (~0.4 MB at either precision — float halves the element
// size, so the f32 panels double their extent) while every row of A streams
// past it.
template <class S>
struct Panel {
  static constexpr std::size_t kK = 192;
  static constexpr std::size_t kN = 256;
};
template <>
struct Panel<float> {
  static constexpr std::size_t kK = 256;
  static constexpr std::size_t kN = 512;
};
static_assert(Panel<double>::kN % Tile<double>::kN == 0 &&
                  Panel<float>::kN % Tile<float>::kN == 0,
              "panel columns start on a micro-tile boundary");

// Row stride of every B operand the micro-kernel reads: n rounded up to a
// whole micro-tile, so an edge tile narrower than Tile<S>::kN still loads
// whole vectors (the pad columns are zero and their lanes are never stored).
template <class S>
std::size_t padded_cols(std::size_t n) {
  return (n + Tile<S>::kN - 1) / Tile<S>::kN * Tile<S>::kN;
}

template <class S>
void prepare_output(MatrixT<S>& C, std::size_t rows, std::size_t cols, bool accumulate,
                    const char* who) {
  if (accumulate) {
    if (C.rows() != rows || C.cols() != cols) {
      throw std::invalid_argument(std::string(who) + ": accumulate into " + C.shape_string() +
                                  ", want " + std::to_string(rows) + "x" + std::to_string(cols));
    }
  } else {
    // Every element is written by the kernels below (overwrite mode), so the
    // usual zero-fill pass would be pure overhead.
    C.resize_for_overwrite(rows, cols);
  }
}

// Reusable packing buffers: slot 0 holds gemm_tn's A^T, slot 1 the padded B
// operand. thread_local so concurrent experiment sweeps don't share them;
// reusing the allocation matters because a fresh buffer per call means an
// mmap + page faults + a redundant zero-fill on every GEMM.
template <class S, int kSlot>
std::vector<S>& pack_scratch() {
  thread_local std::vector<S> scratch;
  return scratch;
}

// dst (rows x cols, row stride ld >= cols) = src (cols x rows) transposed,
// in 8x8 blocks so reads and writes both stay within a handful of cache
// lines per block; columns cols..ld of dst are zeroed.
template <class S>
void pack_transpose(const S* src, S* dst, std::size_t rows, std::size_t cols, std::size_t ld) {
  constexpr std::size_t kB = 8;
  for (std::size_t r0 = 0; r0 < rows; r0 += kB) {
    const std::size_t r1 = std::min(r0 + kB, rows);
    for (std::size_t c0 = 0; c0 < cols; c0 += kB) {
      const std::size_t c1 = std::min(c0 + kB, cols);
      for (std::size_t c = c0; c < c1; ++c) {
        const S* srow = src + c * rows;
        for (std::size_t r = r0; r < r1; ++r) dst[r * ld + c] = srow[r];
      }
    }
  }
  if (ld == cols) return;
  for (std::size_t r = 0; r < rows; ++r) std::fill(dst + r * ld + cols, dst + (r + 1) * ld, S(0));
}

// Returns b (kk x n, row-major) itself when n fills whole micro-tiles, else a
// copy in slot-1 scratch with row stride padded_cols(n) and zeroed pad.
template <class S>
const S* padded_b(const S* b, std::size_t kk, std::size_t n) {
  const std::size_t ld = padded_cols<S>(n);
  if (ld == n) return b;
  auto& scratch = pack_scratch<S, 1>();
  scratch.resize(kk * ld);
  S* dst = scratch.data();
  for (std::size_t k = 0; k < kk; ++k) {
    std::copy(b + k * n, b + (k + 1) * n, dst + k * ld);
    std::fill(dst + k * ld + n, dst + (k + 1) * ld, S(0));
  }
  return dst;
}

// One kRows x Tile<S>::kN block of c (or its first nr columns) = or += a
// (kRows x kk) * b (kk x Tile<S>::kN), on kBytes-wide GNU vectors. The
// accumulator block stays in registers across the whole k loop; each lane
// runs its element's products in increasing k order with one mul + one add
// per k (0 + p0 + p1 + ...), and lands on c with a single store or add.
// Lane ops are IEEE scalar ops, so every vector width, tile height and
// column count gives the same bits. b must be readable for Tile<S>::kN
// columns per row even when nr is smaller (padded_cols).
template <std::size_t kBytes, std::size_t kRows, bool kOverwrite, class S>
[[gnu::always_inline]] inline void vector_tile(const S* a, std::size_t lda, const S* b,
                                               std::size_t ldb, S* c, std::size_t ldc,
                                               std::size_t kk, std::size_t nr) {
  typedef S V __attribute__((vector_size(kBytes)));
  constexpr std::size_t kLanes = kBytes / sizeof(S);
  constexpr std::size_t kTileN = Tile<S>::kN;
  constexpr std::size_t kNV = kTileN / kLanes;
  V acc[kRows][kNV];
  for (auto& row : acc) {
    for (V& v : row) v = V{};
  }
  for (std::size_t k = 0; k < kk; ++k) {
    const S* brow = b + k * ldb;
    V bv[kNV];
    for (std::size_t v = 0; v < kNV; ++v) __builtin_memcpy(&bv[v], brow + v * kLanes, sizeof(V));
    for (std::size_t ii = 0; ii < kRows; ++ii) {
      const S aik = a[ii * lda + k];  // broadcast to every lane
      for (std::size_t v = 0; v < kNV; ++v) acc[ii][v] += aik * bv[v];
    }
  }
  for (std::size_t ii = 0; ii < kRows; ++ii) {
    S* crow = c + ii * ldc;
    if (nr == kTileN) {
      for (std::size_t v = 0; v < kNV; ++v) {
        V out = acc[ii][v];
        if constexpr (!kOverwrite) {
          V cv;
          __builtin_memcpy(&cv, crow + v * kLanes, sizeof(V));
          out = cv + out;
        }
        __builtin_memcpy(crow + v * kLanes, &out, sizeof(V));
      }
    } else {
      S lanes[kTileN];
      for (std::size_t v = 0; v < kNV; ++v) {
        const V out = acc[ii][v];
        __builtin_memcpy(lanes + v * kLanes, &out, sizeof(V));
      }
      for (std::size_t jj = 0; jj < nr; ++jj) {
        if constexpr (kOverwrite) {
          crow[jj] = lanes[jj];
        } else {
          crow[jj] += lanes[jj];
        }
      }
    }
  }
}

// kRows rows of c (m-block x n) = or += a * bkn, one vector tile per
// Tile<S>::kN columns.
template <std::size_t kBytes, std::size_t kRows, bool kOverwrite, class S>
[[gnu::always_inline]] inline void vector_rows(const S* a, std::size_t lda, const S* bkn,
                                               std::size_t ldb, S* c, std::size_t ldc,
                                               std::size_t kk, std::size_t n) {
  constexpr std::size_t kTileN = Tile<S>::kN;
  for (std::size_t j0 = 0; j0 < n; j0 += kTileN) {
    vector_tile<kBytes, kRows, kOverwrite>(a, lda, bkn + j0, ldb, c + j0, ldc, kk,
                                           std::min(kTileN, n - j0));
  }
}

// Shared blocked micro-kernel body: c (m x n) = or += a (m x kk) * bkn
// (kk x n), all row-major, bkn with a row stride ldb >= padded_cols(n).
// Written once and instantiated per vector width by the entry points below.
template <std::size_t kBytes, bool kOverwrite, class S>
[[gnu::always_inline]] inline void tile_mul_add_body(const S* a, std::size_t lda, const S* bkn,
                                                     std::size_t ldb, S* c, std::size_t ldc,
                                                     std::size_t m, std::size_t kk,
                                                     std::size_t n) {
  constexpr std::size_t kTileM = Tile<S>::kM;
  static_assert(kTileM == 4, "the edge-row switch covers 1..3 rows");
  std::size_t i0 = 0;
  for (; i0 + kTileM <= m; i0 += kTileM) {
    vector_rows<kBytes, kTileM, kOverwrite>(a + i0 * lda, lda, bkn, ldb, c + i0 * ldc, ldc, kk, n);
  }
  const S* ai = a + i0 * lda;
  S* ci = c + i0 * ldc;
  switch (m - i0) {
    case 3: vector_rows<kBytes, 3, kOverwrite>(ai, lda, bkn, ldb, ci, ldc, kk, n); break;
    case 2: vector_rows<kBytes, 2, kOverwrite>(ai, lda, bkn, ldb, ci, ldc, kk, n); break;
    case 1: vector_rows<kBytes, 1, kOverwrite>(ai, lda, bkn, ldb, ci, ldc, kk, n); break;
    default: break;
  }
}

// The kernel's two compilations: the 16-byte baseline in tile_mul_add
// itself, valid on every target the library builds for, and a 32-byte
// clone compiled for AVX2 alone (no FMA: a fused multiply-add rounds once
// where the body rounds twice).
#if HCRL_GEMM_HAVE_AVX2
template <bool kOverwrite, class S>
__attribute__((target("avx2"))) void tile_mul_add_32(const S* a, std::size_t lda, const S* bkn,
                                                     std::size_t ldb, S* c, std::size_t ldc,
                                                     std::size_t m, std::size_t kk,
                                                     std::size_t n) {
  tile_mul_add_body<32, kOverwrite>(a, lda, bkn, ldb, c, ldc, m, kk, n);
}
#endif

template <bool kOverwrite, class S>
void tile_mul_add(const S* a, std::size_t lda, const S* bkn, std::size_t ldb, S* c,
                  std::size_t ldc, std::size_t m, std::size_t kk, std::size_t n) {
#if HCRL_GEMM_HAVE_AVX2
  if (gemm_isa() == GemmIsa::kAvx2) {
    tile_mul_add_32<kOverwrite>(a, lda, bkn, ldb, c, ldc, m, kk, n);
    return;
  }
#endif
  tile_mul_add_body<16, kOverwrite>(a, lda, bkn, ldb, c, ldc, m, kk, n);
}

// Serial driver: c (m x n) = or += a (m x kk) * bkn (kk x n), a and c
// densely packed, bkn with row stride ldb. Shapes that fit one panel (every
// NN layer in this project) take the single tile_mul_add call, preserving
// the exact per-element accumulation order the parity tests pin down;
// larger shapes are split into panels, which regroups each element's
// k-chain into per-panel partial sums (same k order, different rounding
// breaks — well inside the parity budget).
template <class S>
void tile_mul_serial(const S* a, const S* bkn, std::size_t ldb, S* c, std::size_t m,
                     std::size_t kk, std::size_t n, bool accumulate) {
  constexpr std::size_t kKBlock = Panel<S>::kK;
  constexpr std::size_t kNBlock = Panel<S>::kN;
  if (kk <= kKBlock && n <= kNBlock) {
    if (accumulate) {
      tile_mul_add<false>(a, kk, bkn, ldb, c, n, m, kk, n);
    } else {
      tile_mul_add<true>(a, kk, bkn, ldb, c, n, m, kk, n);
    }
    return;
  }
  for (std::size_t j0 = 0; j0 < n; j0 += kNBlock) {
    const std::size_t nb = std::min(kNBlock, n - j0);
    // k0 = 0 always runs, so an overwrite with kk == 0 still writes zeros.
    for (std::size_t k0 = 0; k0 == 0 || k0 < kk; k0 += kKBlock) {
      const std::size_t kb = std::min(kKBlock, kk - k0);
      const S* panel = bkn + k0 * ldb + j0;
      if (k0 == 0 && !accumulate) {
        tile_mul_add<true>(a + k0, kk, panel, ldb, c + j0, n, m, kb, nb);
      } else {
        tile_mul_add<false>(a + k0, kk, panel, ldb, c + j0, n, m, kb, nb);
      }
    }
  }
}

// --- kernel ISA -------------------------------------------------------------

GemmIsa supported_isa(GemmIsa want) noexcept {
#if HCRL_GEMM_HAVE_AVX2
  if (want == GemmIsa::kAvx2 && __builtin_cpu_supports("avx2")) return GemmIsa::kAvx2;
#endif
  return GemmIsa::kSse2;
}

GemmIsa gemm_isa_from_env() {
  const char* env = std::getenv("HCRL_GEMM_ISA");
  const bool sse2 = env != nullptr && std::string_view(env) == "sse2";
  return supported_isa(sse2 ? GemmIsa::kSse2 : GemmIsa::kAvx2);
}

std::atomic<GemmIsa>& gemm_isa_setting() {
  static std::atomic<GemmIsa> setting{gemm_isa_from_env()};
  return setting;
}

// --- GEMM worker pool -----------------------------------------------------

constexpr std::size_t kMaxGemmThreads = 64;

std::size_t gemm_threads_from_env() {
  const char* env = std::getenv("HCRL_GEMM_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v < 1) return 1;
  return std::min<std::size_t>(static_cast<std::size_t>(v), kMaxGemmThreads);
}

std::atomic<std::size_t>& gemm_thread_setting() {
  static std::atomic<std::size_t> setting{gemm_threads_from_env()};
  return setting;
}

/// Persistent workers for the threaded GEMM path. One job at a time (callers
/// serialize on run_mutex_, so concurrent scenario threads never interleave
/// chunks); workers are spawned lazily up to the largest count ever
/// requested and parked on a condition variable between jobs.
class GemmPool {
 public:
  static GemmPool& instance() {
    static GemmPool pool;
    return pool;
  }

  /// Invoke fn(0) .. fn(nchunks - 1), chunk 0 on the calling thread and the
  /// rest on pool workers; returns after all chunks completed.
  void run(std::size_t nchunks, const std::function<void(std::size_t)>& fn) {
    if (nchunks <= 1) {
      if (nchunks == 1) fn(0);
      return;
    }
    std::lock_guard<std::mutex> run_lock(run_mutex_);
    ensure_workers(nchunks - 1);
    {
      std::lock_guard<std::mutex> lk(m_);
      job_ = &fn;
      claim_ = nchunks - 1;      // workers take chunk indexes nchunks-1 .. 1
      remaining_ = nchunks - 1;
    }
    cv_.notify_all();
    fn(0);
    std::unique_lock<std::mutex> lk(m_);
    done_cv_.wait(lk, [&] { return remaining_ == 0; });
    job_ = nullptr;
  }

 private:
  GemmPool() = default;

  ~GemmPool() {
    {
      std::lock_guard<std::mutex> lk(m_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  void ensure_workers(std::size_t count) {
    while (workers_.size() < count) {
      const std::size_t index = workers_.size();
      workers_.emplace_back([this, index] {
        telemetry::set_thread_name("gemm-worker-" + std::to_string(index));
        worker_loop();
      });
    }
  }

  void worker_loop() {
    std::unique_lock<std::mutex> lk(m_);
    for (;;) {
      cv_.wait(lk, [&] { return stop_ || claim_ > 0; });
      if (stop_) return;
      while (claim_ > 0) {
        const std::size_t idx = claim_--;
        const auto* job = job_;
        lk.unlock();
        (*job)(idx);
        lk.lock();
        if (--remaining_ == 0) done_cv_.notify_one();
      }
    }
  }

  std::mutex run_mutex_;  // one threaded GEMM at a time
  std::mutex m_;
  std::condition_variable cv_, done_cv_;
  std::vector<std::thread> workers_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t claim_ = 0;      // unclaimed chunk indexes (counts down to 1)
  std::size_t remaining_ = 0;  // chunks not yet finished by workers
  bool stop_ = false;
};

// Minimum multiply-accumulates per worker before fan-out pays for the
// wake/join handshake (~ a few microseconds of kernel work per thread).
constexpr std::size_t kMinMacsPerThread = 32 * 1024;

struct GemmMetrics {
  telemetry::MetricId calls;
  telemetry::MetricId macs;
  telemetry::MetricId threaded_dispatches;

  static const GemmMetrics& get() {
    static const GemmMetrics m = [] {
      auto& reg = telemetry::global_registry();
      return GemmMetrics{
          .calls = reg.counter("nn.gemm.calls"),
          .macs = reg.counter("nn.gemm.macs"),
          .threaded_dispatches = reg.counter("nn.gemm.threaded_dispatches"),
      };
    }();
    return m;
  }
};

// One GEMM of m*kk*n multiply-accumulates, counted where gemm/gemm_nt/
// gemm_tn are entered, so every kernel path (the small-batch ones included)
// shows in nn.gemm.*.
void count_gemm(std::size_t m, std::size_t kk, std::size_t n) noexcept {
  if (!telemetry::enabled()) return;
  const GemmMetrics& gm = GemmMetrics::get();
  telemetry::count(gm.calls);
  telemetry::count(gm.macs, static_cast<std::uint64_t>(m) * kk * n);
}

// Threading driver: row-block the M dimension into one contiguous chunk per
// worker (aligned to the micro-tile). Each chunk runs the unmodified serial
// kernel over its row range and every output row keeps its full k reduction
// on one thread, so the result is bit-identical to the serial path.
template <class S>
void tile_mul(const S* a, const S* bkn, std::size_t ldb, S* c, std::size_t m, std::size_t kk,
              std::size_t n, bool accumulate) {
  const std::size_t threads = gemm_threads();
  if (threads > 1 && m >= 2 * Tile<S>::kM && m * kk * n >= kMinMacsPerThread * 2) {
    const std::size_t want =
        std::min(threads, std::max<std::size_t>(1, (m * kk * n) / kMinMacsPerThread));
    const std::size_t rows_per =
        ((m + want - 1) / want + Tile<S>::kM - 1) / Tile<S>::kM * Tile<S>::kM;
    const std::size_t nchunks = (m + rows_per - 1) / rows_per;
    if (nchunks > 1) {
      if (telemetry::enabled()) telemetry::count(GemmMetrics::get().threaded_dispatches);
      GemmPool::instance().run(nchunks, [&](std::size_t chunk) {
        const std::size_t i0 = chunk * rows_per;
        const std::size_t i1 = std::min(i0 + rows_per, m);
        tile_mul_serial(a + i0 * kk, bkn, ldb, c + i0 * n, i1 - i0, kk, n, accumulate);
      });
      return;
    }
  }
  tile_mul_serial(a, bkn, ldb, c, m, kk, n, accumulate);
}

// gemm_nt's small-batch kernel: c (kM x n) = or += a (kM x kk) * b^T, with
// b (n x kk) row-major and kM below the tile height (one decision's K head
// rows, a batch-1 LSTM step). A column block's B values are gathered once
// per k into vector lanes, one lane per output column, and reused by all kM
// rows; each lane accumulates its element's products in increasing k order
// (0 + p0 + p1 + ...) and lands on C with a single store or add, exactly
// like the micro-kernel, so results are identical. Tail columns run the
// same k-ordered sum as a scalar dot product.
template <std::size_t kBytes, std::size_t kM, class S>
[[gnu::always_inline]] inline void small_nt_rows_body(const S* a, const S* b, S* c,
                                                      std::size_t kk, std::size_t n,
                                                      bool accumulate) {
  auto store = [&](S* dst, S acc) {
    if (accumulate) {
      *dst += acc;
    } else {
      *dst = acc;
    }
  };
  std::size_t j0 = 0;
  typedef S V __attribute__((vector_size(kBytes)));
  constexpr std::size_t kLanes = kBytes / sizeof(S);
  // Independent accumulator chains hide the add latency; one row gets more
  // of them, since its block has no other rows to interleave with. A column
  // block spans 64 (one row) or 32 bytes at every vector width, so the wider
  // kernel leaves no more columns to the scalar tail.
  constexpr std::size_t kNV = (kM == 1 ? 64 : 32) / kBytes;
  constexpr std::size_t kCols = kLanes * kNV;
  for (; j0 + kCols <= n; j0 += kCols) {
    V acc[kM][kNV];
    for (auto& row : acc) {
      for (V& v : row) v = V{};
    }
    const S* bj = b + j0 * kk;
    for (std::size_t k = 0; k < kk; ++k) {
      V bv[kNV];
      for (std::size_t v = 0; v < kNV; ++v) {
        S lanes[kLanes];
        for (std::size_t l = 0; l < kLanes; ++l) lanes[l] = bj[(v * kLanes + l) * kk + k];
        __builtin_memcpy(&bv[v], lanes, sizeof(V));
      }
      for (std::size_t i = 0; i < kM; ++i) {
        const S aik = a[i * kk + k];  // broadcast to every lane
        for (std::size_t v = 0; v < kNV; ++v) acc[i][v] += aik * bv[v];
      }
    }
    for (std::size_t i = 0; i < kM; ++i) {
      S* crow = c + i * n + j0;
      for (std::size_t v = 0; v < kNV; ++v) {
        for (std::size_t l = 0; l < kLanes; ++l) store(crow + v * kLanes + l, acc[i][v][l]);
      }
    }
  }
  for (std::size_t i = 0; i < kM; ++i) {
    const S* arow = a + i * kk;
    for (std::size_t j = j0; j < n; ++j) {
      const S* brow = b + j * kk;
      S acc = S(0);
      for (std::size_t k = 0; k < kk; ++k) acc += arow[k] * brow[k];
      store(c + i * n + j, acc);
    }
  }
}

#if HCRL_GEMM_HAVE_AVX2
template <std::size_t kM, class S>
__attribute__((target("avx2"))) void small_nt_rows_32(const S* a, const S* b, S* c,
                                                      std::size_t kk, std::size_t n,
                                                      bool accumulate) {
  small_nt_rows_body<32, kM>(a, b, c, kk, n, accumulate);
}
#endif

// One row stays on 16-byte vectors: its 32-byte gather of kk-strided B
// values measured slower than two 16-byte ones (f64 1x30x120, the batch-1
// LSTM step: 1.0 -> 1.1 us); two and three rows gain (f64 3x84x128, the
// K = 3 head sweep of one decision: 7.1 -> 4.1 us).
template <std::size_t kM, class S>
void small_nt_rows(const S* a, const S* b, S* c, std::size_t kk, std::size_t n,
                   bool accumulate) {
#if HCRL_GEMM_HAVE_AVX2
  if constexpr (kM > 1) {
    if (gemm_isa() == GemmIsa::kAvx2) {
      small_nt_rows_32<kM>(a, b, c, kk, n, accumulate);
      return;
    }
  }
#endif
  small_nt_rows_body<16, kM>(a, b, c, kk, n, accumulate);
}

}  // namespace

void set_gemm_threads(std::size_t n) noexcept {
  gemm_thread_setting().store(std::clamp<std::size_t>(n, 1, kMaxGemmThreads),
                              std::memory_order_relaxed);
}

std::size_t gemm_threads() noexcept {
  return gemm_thread_setting().load(std::memory_order_relaxed);
}

void set_gemm_isa(GemmIsa isa) noexcept {
  gemm_isa_setting().store(supported_isa(isa), std::memory_order_relaxed);
}

GemmIsa gemm_isa() noexcept { return gemm_isa_setting().load(std::memory_order_relaxed); }

template <class S>
void gemm(const MatrixT<S>& A, const MatrixT<S>& B, MatrixT<S>& C, bool accumulate) {
  if (A.cols() != B.rows()) {
    throw std::invalid_argument("gemm: shape mismatch " + A.shape_string() + " * " +
                                B.shape_string());
  }
  const std::size_t m = A.rows(), kk = A.cols(), n = B.cols();
  prepare_output(C, m, n, accumulate, "gemm");
  count_gemm(m, kk, n);
  // Small-batch path: accumulate rows of B directly into the output row —
  // contiguous walks; k = 0 seeds the row, so the incremental adds round
  // exactly like the micro-kernel's register sums (0 + p0 is exact).
  if (m < Tile<S>::kM && !accumulate) {
    const S* a = A.data();
    const S* b = B.data();
    S* c = C.data();
    for (std::size_t i = 0; i < m; ++i) {
      const S* arow = a + i * kk;
      S* crow = c + i * n;
      if (kk == 0) {
        for (std::size_t j = 0; j < n; ++j) crow[j] = S(0);
        continue;
      }
      for (std::size_t j = 0; j < n; ++j) crow[j] = arow[0] * b[j];
      for (std::size_t k = 1; k < kk; ++k) {
        const S aik = arow[k];
        const S* brow = b + k * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
      }
    }
    return;
  }
  // B is already (kk x n) row-major — the micro-kernel's native layout,
  // once its rows are padded to whole micro-tiles.
  tile_mul(A.data(), padded_b(B.data(), kk, n), padded_cols<S>(n), C.data(), m, kk, n,
           accumulate);
}

template <class S>
void gemm_tn(const MatrixT<S>& A, const MatrixT<S>& B, MatrixT<S>& C, bool accumulate) {
  if (A.rows() != B.rows()) {
    throw std::invalid_argument("gemm_tn: shape mismatch " + A.shape_string() + "^T * " +
                                B.shape_string());
  }
  const std::size_t kk = A.rows(), m = A.cols(), n = B.cols();
  prepare_output(C, m, n, accumulate, "gemm_tn");
  count_gemm(m, kk, n);
  // Pack A^T (m x kk) once — O(m*kk), amortized over the m*kk*n kernel work.
  auto& scratch = pack_scratch<S, 0>();
  scratch.resize(m * kk);
  S* at = scratch.data();
  pack_transpose(A.data(), at, m, kk, kk);
  tile_mul(at, padded_b(B.data(), kk, n), padded_cols<S>(n), C.data(), m, kk, n, accumulate);
}

template <class S>
void gemm_nt(const MatrixT<S>& A, const MatrixT<S>& B, MatrixT<S>& C, bool accumulate) {
  if (A.cols() != B.cols()) {
    throw std::invalid_argument("gemm_nt: shape mismatch " + A.shape_string() + " * " +
                                B.shape_string() + "^T");
  }
  const std::size_t m = A.rows(), kk = A.cols(), n = B.rows();
  prepare_output(C, m, n, accumulate, "gemm_nt");
  count_gemm(m, kk, n);
  const S* a = A.data();
  const S* b = B.data();
  S* c = C.data();
  // Batched path: pack B^T (kk x n, rows padded to whole micro-tiles) once
  // — amortized across the m batch rows — then run the register-tiled
  // micro-kernel.
  if (m >= Tile<S>::kM) {
    const std::size_t ld = padded_cols<S>(n);
    auto& scratch = pack_scratch<S, 1>();
    scratch.resize(kk * ld);
    S* bt = scratch.data();
    pack_transpose(b, bt, kk, n, ld);
    tile_mul(a, bt, ld, c, m, kk, n, accumulate);
    return;
  }
  // Small-batch path: skipping the pack is cheaper below the tile height.
  static_assert(Tile<S>::kM == 4, "the small-batch kernel covers m = 1..3");
  switch (m) {
    case 1: small_nt_rows<1>(a, b, c, kk, n, accumulate); break;
    case 2: small_nt_rows<2>(a, b, c, kk, n, accumulate); break;
    case 3: small_nt_rows<3>(a, b, c, kk, n, accumulate); break;
    default: break;  // m == 0
  }
}

template <class S>
void add_in_place(MatrixT<S>& X, const MatrixT<S>& Y) {
  if (!X.same_shape(Y)) {
    throw std::invalid_argument("Matrix add_in_place: " + X.shape_string() + " vs " +
                                Y.shape_string());
  }
  S* x = X.data();
  const S* y = Y.data();
  for (std::size_t i = 0; i < X.size(); ++i) x[i] += y[i];
}

template <class S>
VecT<S> add(const VecT<S>& x, const VecT<S>& y) {
  assert(x.size() == y.size());
  VecT<S> z(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) z[i] = x[i] + y[i];
  return z;
}

template <class S>
void add_in_place(VecT<S>& x, const VecT<S>& y) {
  assert(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += y[i];
}

template <class S>
void scale_in_place(VecT<S>& x, S s) {
  for (auto& v : x) v *= s;
}

template <class S>
S dot(const VecT<S>& x, const VecT<S>& y) {
  assert(x.size() == y.size());
  S acc = S(0);
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

template <class S>
S norm(const VecT<S>& x) {
  return std::sqrt(dot(x, x));
}

template <class S>
VecT<S> concat(const std::vector<const VecT<S>*>& parts) {
  std::size_t total = 0;
  for (const VecT<S>* p : parts) total += p->size();
  VecT<S> out;
  out.reserve(total);
  for (const VecT<S>* p : parts) out.insert(out.end(), p->begin(), p->end());
  return out;
}

template <class S>
std::size_t argmax(const VecT<S>& x) {
  if (x.empty()) throw std::invalid_argument("argmax: empty vector");
  std::size_t best = 0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    if (x[i] > x[best]) best = i;
  }
  return best;
}

// Explicit instantiations: the library ships exactly the float and double
// kernels (matrix.hpp declares the templates without definitions).
#define HCRL_NN_INSTANTIATE_MATRIX(S)                                                  \
  template void gemm<S>(const MatrixT<S>&, const MatrixT<S>&, MatrixT<S>&, bool);      \
  template void gemm_tn<S>(const MatrixT<S>&, const MatrixT<S>&, MatrixT<S>&, bool);   \
  template void gemm_nt<S>(const MatrixT<S>&, const MatrixT<S>&, MatrixT<S>&, bool);   \
  template void add_in_place<S>(MatrixT<S>&, const MatrixT<S>&);                       \
  template VecT<S> add<S>(const VecT<S>&, const VecT<S>&);                             \
  template void add_in_place<S>(VecT<S>&, const VecT<S>&);                             \
  template void scale_in_place<S>(VecT<S>&, S);                                        \
  template S dot<S>(const VecT<S>&, const VecT<S>&);                                   \
  template S norm<S>(const VecT<S>&);                                                  \
  template VecT<S> concat<S>(const std::vector<const VecT<S>*>&);                      \
  template std::size_t argmax<S>(const VecT<S>&);

HCRL_NN_INSTANTIATE_MATRIX(float)
HCRL_NN_INSTANTIATE_MATRIX(double)
#undef HCRL_NN_INSTANTIATE_MATRIX

}  // namespace hcrl::nn
