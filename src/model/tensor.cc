#include "model/tensor.h"

namespace evostore::model {

common::Hash128 TensorSpec::signature() const {
  common::Hasher128 h(0x7e4507);
  h.u64(static_cast<uint64_t>(dtype));
  h.u64(shape.size());
  for (int64_t d : shape) h.i64(d);
  return h.finish();
}

std::string TensorSpec::to_string() const {
  std::string out(dtype_name(dtype));
  out += "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(shape[i]);
  }
  out += "]";
  return out;
}

bool TensorSpec::size_in_range() const {
  auto bytes = static_cast<int64_t>(dtype_size(dtype));
  for (int64_t d : shape) {
    if (d < 0 || __builtin_mul_overflow(bytes, d, &bytes)) return false;
  }
  return true;
}

Tensor Tensor::zeros(TensorSpec spec) {
  size_t n = spec.nbytes();
  return Tensor(std::move(spec), common::Buffer::zeros(n));
}

Tensor Tensor::random(TensorSpec spec, uint64_t seed) {
  size_t n = spec.nbytes();
  return Tensor(std::move(spec), common::Buffer::synthetic(n, seed));
}

}  // namespace evostore::model
