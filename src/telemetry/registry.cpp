#include "src/telemetry/registry.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/common/stats.hpp"

namespace hcrl::telemetry {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

std::string to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

double MetricValue::quantile(double q) const {
  if (kind != MetricKind::kHistogram || count == 0) return 0.0;
  // Interpolation inside a bin can land outside what was observed (one
  // 10.36 s sample in a [5, 20) bin reads 12.5); the exact range bounds it.
  // min > max only when a snapshot raced the first sample's extrema update.
  const double x = common::quantile_from_bins(bins, bounds, q);
  return min <= max ? std::clamp(x, min, max) : x;
}

const MetricValue* RegistrySnapshot::find(const std::string& name) const noexcept {
  for (const auto& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

MetricRegistry::~MetricRegistry() {
  for (auto& cell : slabs_) {
    delete cell.load(std::memory_order_acquire);
  }
}

MetricId MetricRegistry::counter(const std::string& name) {
  return define(name, MetricKind::kCounter, {});
}

MetricId MetricRegistry::gauge(const std::string& name) {
  return define(name, MetricKind::kGauge, {});
}

MetricId MetricRegistry::histogram(const std::string& name, std::vector<double> bounds) {
  if (bounds.empty()) throw std::logic_error("histogram '" + name + "': empty bounds");
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (!std::isfinite(bounds[i]) || (i > 0 && !(bounds[i] > bounds[i - 1]))) {
      throw std::logic_error("histogram '" + name + "': bounds must be finite and ascending");
    }
  }
  return define(name, MetricKind::kHistogram, std::move(bounds));
}

MetricId MetricRegistry::define(const std::string& name, MetricKind kind,
                                std::vector<double> bounds) {
  if (name.empty()) throw std::logic_error("metric name must be non-empty");
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < num_defs_; ++i) {
    if (defs_[i].name != name) continue;
    if (defs_[i].kind != kind) {
      throw std::logic_error("metric '" + name + "' redefined as " + to_string(kind) +
                             " (was " + to_string(defs_[i].kind) + ")");
    }
    if (kind == MetricKind::kHistogram && defs_[i].bounds != bounds) {
      throw std::logic_error("histogram '" + name + "' redefined with different bounds");
    }
    return static_cast<MetricId>(i);
  }
  if (num_defs_ >= kMaxMetrics) throw std::logic_error("MetricRegistry: kMaxMetrics exhausted");
  Def& d = defs_[num_defs_];
  d.name = name;
  d.kind = kind;
  if (kind == MetricKind::kHistogram) {
    const auto nbins = static_cast<std::uint32_t>(bounds.size() + 1);
    if (next_bin_ + nbins > kMaxBins) throw std::logic_error("MetricRegistry: kMaxBins exhausted");
    d.bin_offset = next_bin_;
    next_bin_ += nbins;
    d.bounds = std::move(bounds);
  }
  return static_cast<MetricId>(num_defs_++);
}

namespace {

/// CAS `x` into `cell` (double bits) while `better(x, current)` holds.
template <class Better>
void cas_extremum(std::atomic<std::uint64_t>& cell, double x, Better better) noexcept {
  std::uint64_t old_bits = cell.load(std::memory_order_relaxed);
  while (better(x, std::bit_cast<double>(old_bits)) &&
         !cell.compare_exchange_weak(old_bits, std::bit_cast<std::uint64_t>(x),
                                     std::memory_order_relaxed)) {
  }
}

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

void MetricRegistry::Slab::clear_extrema() noexcept {
  for (auto& a : min_bits) a.store(std::bit_cast<std::uint64_t>(kInf), std::memory_order_relaxed);
  for (auto& a : max_bits) a.store(std::bit_cast<std::uint64_t>(-kInf), std::memory_order_relaxed);
}

MetricRegistry::Slab& MetricRegistry::create_slab(std::size_t shard) noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  Slab* s = slabs_[shard].load(std::memory_order_acquire);
  if (s == nullptr) {
    s = new Slab();
    slabs_[shard].store(s, std::memory_order_release);
  }
  return *s;
}

void MetricRegistry::observe(std::size_t shard, MetricId id, double x) noexcept {
  Slab& s = slab(shard);
  // Defs are append-only; the id was handed out under the mutex, so the Def
  // it indexes is immutable by now. Read without locking.
  const Def& d = defs_[id];
  const auto bin = static_cast<std::size_t>(
      std::upper_bound(d.bounds.begin(), d.bounds.end(), x) - d.bounds.begin());
  s.bins[d.bin_offset + bin].fetch_add(1, std::memory_order_relaxed);
  s.count[id].fetch_add(1, std::memory_order_relaxed);
  cas_extremum(s.min_bits[id], x, [](double a, double b) { return a < b; });
  cas_extremum(s.max_bits[id], x, [](double a, double b) { return a > b; });
  // CAS-accumulate the double sum in the fbits cell.
  std::uint64_t old_bits = s.fbits[id].load(std::memory_order_relaxed);
  while (true) {
    const double updated = std::bit_cast<double>(old_bits) + x;
    if (s.fbits[id].compare_exchange_weak(old_bits, std::bit_cast<std::uint64_t>(updated),
                                          std::memory_order_relaxed)) {
      break;
    }
  }
}

RegistrySnapshot MetricRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RegistrySnapshot snap;
  snap.metrics.reserve(num_defs_);
  for (std::size_t i = 0; i < num_defs_; ++i) {
    const Def& d = defs_[i];
    MetricValue v;
    v.name = d.name;
    v.kind = d.kind;
    v.bounds = d.bounds;
    if (d.kind == MetricKind::kHistogram) v.bins.assign(d.bounds.size() + 1, 0);
    double gauge_max = -kInf;
    double sample_min = kInf;
    double sample_max = -kInf;
    for (std::size_t shard = 0; shard < kMaxShards; ++shard) {
      const Slab* s = slabs_[shard].load(std::memory_order_acquire);
      if (s == nullptr) continue;
      const std::uint64_t c = s->count[i].load(std::memory_order_relaxed);
      v.count += c;
      switch (d.kind) {
        case MetricKind::kCounter:
          break;
        case MetricKind::kGauge:
          if (c > 0) {
            gauge_max = std::max(gauge_max,
                                 std::bit_cast<double>(s->fbits[i].load(std::memory_order_relaxed)));
          }
          break;
        case MetricKind::kHistogram:
          v.value += std::bit_cast<double>(s->fbits[i].load(std::memory_order_relaxed));
          for (std::size_t b = 0; b < v.bins.size(); ++b) {
            v.bins[b] += s->bins[d.bin_offset + b].load(std::memory_order_relaxed);
          }
          sample_min = std::min(
              sample_min, std::bit_cast<double>(s->min_bits[i].load(std::memory_order_relaxed)));
          sample_max = std::max(
              sample_max, std::bit_cast<double>(s->max_bits[i].load(std::memory_order_relaxed)));
          break;
      }
    }
    if (d.kind == MetricKind::kCounter) v.value = static_cast<double>(v.count);
    if (d.kind == MetricKind::kGauge) v.value = v.count > 0 ? gauge_max : 0.0;
    if (d.kind == MetricKind::kHistogram && v.count > 0) {
      v.min = sample_min;
      v.max = sample_max;
    }
    snap.metrics.push_back(std::move(v));
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const MetricValue& a, const MetricValue& b) { return a.name < b.name; });
  return snap;
}

void MetricRegistry::reset() noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& cell : slabs_) {
    Slab* s = cell.load(std::memory_order_acquire);
    if (s == nullptr) continue;
    for (auto& a : s->count) a.store(0, std::memory_order_relaxed);
    for (auto& a : s->fbits) a.store(0, std::memory_order_relaxed);
    for (auto& a : s->bins) a.store(0, std::memory_order_relaxed);
    s->clear_extrema();
  }
}

std::size_t MetricRegistry::num_metrics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return num_defs_;
}

void set_enabled(bool on) noexcept { detail::g_enabled.store(on, std::memory_order_relaxed); }

MetricRegistry& global_registry() {
  // Leaked on purpose (never destroyed before late worker threads exit);
  // the static pointer keeps it reachable so LSan stays quiet.
  static MetricRegistry* const reg = new MetricRegistry();
  return *reg;
}

namespace {
thread_local std::size_t t_shard = 0;
}  // namespace

std::size_t current_shard() noexcept { return t_shard; }

ShardScope::ShardScope(std::size_t shard) noexcept : prev_(t_shard) {
  t_shard = shard % MetricRegistry::kMaxShards;
}

ShardScope::~ShardScope() { t_shard = prev_; }

}  // namespace hcrl::telemetry
