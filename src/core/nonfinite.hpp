// The named error of the fail-loud numerics guards at the tier boundaries.
#pragma once

#include <stdexcept>

namespace hcrl::core {

/// A loss, gradient norm, bootstrap target, Q-value or prediction that is
/// NaN or infinite. Thrown at the tier boundary instead of letting a
/// diverged network drive decisions; a Runner batch records it as the
/// cell's error outcome.
class NonFiniteError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

}  // namespace hcrl::core
