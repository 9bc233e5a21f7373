#include "src/sim/types.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace hcrl::sim {

void ResourceVector::add(const ResourceVector& other) {
  if (other.dims() != dims()) throw std::invalid_argument("ResourceVector::add: dim mismatch");
  for (std::size_t i = 0; i < v_.size(); ++i) v_[i] += other.v_[i];
}

void ResourceVector::subtract(const ResourceVector& other) {
  if (other.dims() != dims()) throw std::invalid_argument("ResourceVector::subtract: dim mismatch");
  for (std::size_t i = 0; i < v_.size(); ++i) v_[i] -= other.v_[i];
}

bool ResourceVector::fits(const ResourceVector& demand) const {
  if (demand.dims() != dims()) throw std::invalid_argument("ResourceVector::fits: dim mismatch");
  // Small epsilon so that accumulated floating-point release/acquire noise
  // never wedges a job that exactly fills the machine.
  constexpr double kEps = 1e-9;
  for (std::size_t i = 0; i < v_.size(); ++i) {
    if (demand.v_[i] > v_[i] + kEps) return false;
  }
  return true;
}

double ResourceVector::max_component() const noexcept {
  double m = 0.0;
  for (double x : v_) m = std::max(m, x);
  return m;
}

void ResourceVector::clamp(double lo, double hi) noexcept {
  for (double& x : v_) x = std::clamp(x, lo, hi);
}

std::string ResourceVector::to_string() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < v_.size(); ++i) {
    if (i) os << ", ";
    os << v_[i];
  }
  os << "]";
  return os.str();
}

void Job::validate(std::size_t expected_dims) const {
  // Written so NaN fails every test: each comparison with NaN is false.
  if (!(std::isfinite(duration) && duration > 0.0)) {
    throw std::invalid_argument("Job: duration must be finite and > 0");
  }
  if (!(std::isfinite(arrival) && arrival >= 0.0)) {
    throw std::invalid_argument("Job: arrival must be finite and >= 0");
  }
  if (demand.dims() != expected_dims) throw std::invalid_argument("Job: wrong demand dims");
  for (std::size_t i = 0; i < demand.dims(); ++i) {
    if (!(demand[i] >= 0.0 && demand[i] <= 1.0)) {
      throw std::invalid_argument("Job: demand component out of [0,1]");
    }
  }
}

}  // namespace hcrl::sim
