#include "src/nn/serialize.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace hcrl::nn {

namespace {
constexpr const char* kMagic = "hcrl-params-v1";
}  // namespace

template <class S>
void save_params(std::ostream& out, const std::vector<ParamBlockPtrT<S>>& params) {
  auto segs = gather_segments(params);
  std::size_t total = 0;
  for (const auto& s : segs) total += s.n;
  out << kMagic << "\n" << total << "\n";
  out.precision(std::numeric_limits<double>::max_digits10);
  for (const auto& s : segs) {
    for (std::size_t i = 0; i < s.n; ++i) out << static_cast<double>(s.value[i]) << "\n";
  }
  if (!out) throw std::runtime_error("save_params: stream write failed");
}

template <class S>
void save_params_file(const std::string& path, const std::vector<ParamBlockPtrT<S>>& params) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_params_file: cannot open " + path);
  save_params(out, params);
}

template <class S>
void load_params(std::istream& in, const std::vector<ParamBlockPtrT<S>>& params) {
  std::string magic;
  std::size_t total = 0;
  in >> magic >> total;
  if (magic != kMagic) throw std::invalid_argument("load_params: bad magic '" + magic + "'");
  auto segs = gather_segments(params);
  std::size_t expected = 0;
  for (const auto& s : segs) expected += s.n;
  if (expected != total) {
    throw std::invalid_argument("load_params: size mismatch (file " + std::to_string(total) +
                                ", model " + std::to_string(expected) + ")");
  }
  // Parse everything before touching the model, so a truncated or corrupt
  // stream throws with the parameters unchanged.
  std::vector<S> staged(expected);
  for (std::size_t i = 0; i < expected; ++i) {
    double v = 0.0;
    if (!(in >> v)) throw std::invalid_argument("load_params: truncated file");
    staged[i] = static_cast<S>(v);
    if (!std::isfinite(staged[i])) {
      throw std::invalid_argument("load_params: value " + std::to_string(i) +
                                  " is not finite at this precision");
    }
  }
  // A checkpoint holds exactly the declared count: a duplicated or stray
  // value line would otherwise load silently, shifted into the wrong slots.
  if (!(in >> std::ws).eof()) {
    throw std::invalid_argument("load_params: trailing data after " + std::to_string(total) +
                                " values");
  }
  const S* next = staged.data();
  for (auto& s : segs) {
    std::copy(next, next + s.n, s.value);
    next += s.n;
  }
}

template <class S>
void load_params_file(const std::string& path, const std::vector<ParamBlockPtrT<S>>& params) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_params_file: cannot open " + path);
  load_params(in, params);
}

#define HCRL_NN_INSTANTIATE_SERIALIZE(S)                                                   \
  template void save_params<S>(std::ostream&, const std::vector<ParamBlockPtrT<S>>&);      \
  template void save_params_file<S>(const std::string&,                                    \
                                    const std::vector<ParamBlockPtrT<S>>&);                \
  template void load_params<S>(std::istream&, const std::vector<ParamBlockPtrT<S>>&);      \
  template void load_params_file<S>(const std::string&,                                    \
                                    const std::vector<ParamBlockPtrT<S>>&);

HCRL_NN_INSTANTIATE_SERIALIZE(float)
HCRL_NN_INSTANTIATE_SERIALIZE(double)
#undef HCRL_NN_INSTANTIATE_SERIALIZE

}  // namespace hcrl::nn
