// The named error of the fail-loud numerics guards at the tier boundaries.
#pragma once

#include <stdexcept>
#include <string>

#include "src/telemetry/registry.hpp"

namespace hcrl::core {

/// A loss, gradient norm, bootstrap target, Q-value or prediction that is
/// NaN or infinite. Thrown at the tier boundary instead of letting a
/// diverged network drive decisions; a Runner batch records it as the
/// cell's error outcome.
class NonFiniteError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Counts the failure on the tier's `counter` ("global.nonfinite" or
/// "local.nonfinite") when telemetry is on, then throws NonFiniteError.
[[noreturn]] inline void fail_nonfinite(const char* counter, const std::string& what) {
  if (telemetry::enabled()) telemetry::count(telemetry::global_registry().counter(counter));
  throw NonFiniteError(what);
}

}  // namespace hcrl::core
