// Save/load parameter values of a model (text format, versioned).
//
// The format is intentionally simple: a magic header, the number of
// parameter scalars, then one value per line with full precision. It is
// shape-unaware — the caller must construct an identically-shaped model
// before loading — which keeps the format stable across refactors. It is
// also precision-unaware: values are written as decimal text at full double
// precision regardless of the model's Scalar type, so an f32 model can be
// saved and restored (and a f64 checkpoint loads into an f32 model with the
// expected rounding).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "src/nn/param.hpp"

namespace hcrl::nn {

template <class S>
void save_params(std::ostream& out, const std::vector<ParamBlockPtrT<S>>& params);
template <class S>
void save_params_file(const std::string& path, const std::vector<ParamBlockPtrT<S>>& params);

/// Throws std::invalid_argument on a header/size mismatch, a truncated or
/// unparsable stream, anything but whitespace after the last value, or a
/// value that is not finite at precision S; the parameters are written only
/// after the whole stream has parsed.
template <class S>
void load_params(std::istream& in, const std::vector<ParamBlockPtrT<S>>& params);
template <class S>
void load_params_file(const std::string& path, const std::vector<ParamBlockPtrT<S>>& params);

}  // namespace hcrl::nn
