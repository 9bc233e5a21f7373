// Low-overhead metric registry: named counters, gauges and fixed-boundary
// histograms with shard-local accumulation and a deterministic merge.
//
// Design constraints (the tentpole contract, pinned by telemetry_test):
//  - Telemetry NEVER perturbs simulation results. Instrumentation only reads
//    counts and clocks — it feeds nothing back — so runs with telemetry on
//    are bit-identical to runs with it off, at both precisions.
//  - Near-zero cost when disabled: every hot helper is a relaxed atomic
//    load + branch (BM_TelemetryCounter commits the number to
//    BENCH_micro.json).
//  - Shard-local accumulation: writers bind a shard slab (ShardScope) and
//    increment plain relaxed atomics in it, so concurrent writers (runner
//    workers) never contend on one cache line. Sharing a slab is still safe
//    (cells are atomic), just slower.
//  - Deterministic merge: snapshot() folds the shard slabs in shard-index
//    order. Counter values and histogram bin counts are integer sums, so the
//    merged snapshot is invariant to how increments were distributed across
//    slabs (tested across slab counts); gauges merge by maximum.
//
// Metric definitions are process-lifetime and idempotent by name: any module
// may `global_registry().counter("sim.events")` from a function-local static
// and every call site resolves to the same id. Capacities are fixed
// (kMaxMetrics / kMaxShards / kMaxBins) so slabs never reallocate under
// concurrent writers.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace hcrl::telemetry {

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Dense metric index into every shard slab; stable for process lifetime.
using MetricId = std::uint32_t;

std::string to_string(MetricKind kind);

/// One merged metric in a RegistrySnapshot.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  /// Counter: the value. Histogram: total samples. Gauge: times set.
  std::uint64_t count = 0;
  /// Gauge: merged (maximum) value. Histogram: sum of samples (folded in
  /// shard order). Counters: equal to `count`.
  double value = 0.0;
  /// Histogram only: ascending boundaries and bounds.size() + 1 bin counts
  /// (bin i holds samples with x < bounds[i] and x >= bounds[i-1]; the last
  /// bin is the >= bounds.back() overflow).
  std::vector<double> bounds;
  std::vector<std::uint64_t> bins;
  /// Histogram only: exact smallest and largest sample (0 when empty).
  double min = 0.0;
  double max = 0.0;

  /// Histogram quantile via common::quantile_from_bins, clamped to the
  /// observed [min, max]; 0 when empty.
  double quantile(double q) const;
};

struct RegistrySnapshot {
  /// Sorted by name (the export order of the snapshot schema).
  std::vector<MetricValue> metrics;

  /// Lookup by exact name; nullptr when absent.
  const MetricValue* find(const std::string& name) const noexcept;
};

class MetricRegistry {
 public:
  static constexpr std::size_t kMaxMetrics = 256;
  static constexpr std::size_t kMaxShards = 128;
  static constexpr std::size_t kMaxBins = 4096;  // per-shard histogram bin pool

  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;
  ~MetricRegistry();

  /// Define (or look up) a metric. Idempotent by name; a kind (or, for
  /// histograms, boundary) mismatch with an existing name throws
  /// std::logic_error, as does exhausting a capacity.
  MetricId counter(const std::string& name);
  MetricId gauge(const std::string& name);
  /// `bounds` must be non-empty, finite and strictly ascending.
  MetricId histogram(const std::string& name, std::vector<double> bounds);

  /// Next writer shard index, round-robin over [0, kMaxShards).
  std::size_t acquire_shard() noexcept {
    return next_shard_.fetch_add(1, std::memory_order_relaxed) % kMaxShards;
  }

  // -- hot-path writes (relaxed atomics on the shard's slab) -----------------

  void add(std::size_t shard, MetricId id, std::uint64_t n = 1) noexcept {
    slab(shard).count[id].fetch_add(n, std::memory_order_relaxed);
  }

  /// Record a gauge value: last set wins within a slab; slabs merge by max.
  void set_gauge(std::size_t shard, MetricId id, double v) noexcept {
    Slab& s = slab(shard);
    s.fbits[id].store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
    s.count[id].fetch_add(1, std::memory_order_relaxed);
  }

  void observe(std::size_t shard, MetricId id, double x) noexcept;

  // -- cold-path queries -----------------------------------------------------

  /// Deterministic merge of every shard slab, metrics sorted by name.
  RegistrySnapshot snapshot() const;
  /// Zero every slab cell; definitions are kept (bench/test isolation).
  void reset() noexcept;
  std::size_t num_metrics() const;

 private:
  struct Slab {
    Slab() noexcept { clear_extrema(); }
    /// Reset the histogram min/max cells to their empty (+inf / -inf) state.
    void clear_extrema() noexcept;

    std::array<std::atomic<std::uint64_t>, kMaxMetrics> count{};
    /// Gauge value bits / histogram sum bits (CAS-accumulated).
    std::array<std::atomic<std::uint64_t>, kMaxMetrics> fbits{};
    /// Histogram min / max sample bits (CAS-updated).
    std::array<std::atomic<std::uint64_t>, kMaxMetrics> min_bits{};
    std::array<std::atomic<std::uint64_t>, kMaxMetrics> max_bits{};
    std::array<std::atomic<std::uint64_t>, kMaxBins> bins{};
  };
  struct Def {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    std::uint32_t bin_offset = 0;  // histogram slice of Slab::bins
    std::vector<double> bounds;
  };

  MetricId define(const std::string& name, MetricKind kind, std::vector<double> bounds);

  Slab& slab(std::size_t shard) noexcept {
    Slab* s = slabs_[shard % kMaxShards].load(std::memory_order_acquire);
    return s != nullptr ? *s : create_slab(shard % kMaxShards);
  }
  Slab& create_slab(std::size_t shard) noexcept;

  mutable std::mutex mutex_;  // guards definitions and slab creation
  std::array<Def, kMaxMetrics> defs_;
  std::size_t num_defs_ = 0;
  std::uint32_t next_bin_ = 0;
  std::array<std::atomic<Slab*>, kMaxShards> slabs_{};
  std::atomic<std::size_t> next_shard_{0};
};

// -- process-global registry + enable switch ---------------------------------

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Master switch for all collection (metrics and trace spans). Off by
/// default; the hot helpers below are a relaxed load + branch while off.
inline bool enabled() noexcept { return detail::g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) noexcept;

/// The process-wide registry every built-in instrumentation site writes to.
/// (Instantiating private MetricRegistry objects is still supported — tests
/// do — but the convenience helpers below always target this one.)
MetricRegistry& global_registry();

/// The calling thread's current shard slab index (default 0).
std::size_t current_shard() noexcept;

/// Scoped binding of the calling thread to a registry shard. Writers that
/// may run concurrently (runner workers) bind distinct slabs so their
/// increments never share cache lines.
class ShardScope {
 public:
  explicit ShardScope(std::size_t shard) noexcept;
  ~ShardScope();
  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;

 private:
  std::size_t prev_;
};

// -- hot helpers (no-ops while disabled) -------------------------------------

inline void count(MetricId id, std::uint64_t n = 1) noexcept {
  if (!enabled()) return;
  global_registry().add(current_shard(), id, n);
}

inline void observe(MetricId id, double x) noexcept {
  if (!enabled()) return;
  global_registry().observe(current_shard(), id, x);
}

inline void gauge_set(MetricId id, double v) noexcept {
  if (!enabled()) return;
  global_registry().set_gauge(current_shard(), id, v);
}

}  // namespace hcrl::telemetry
