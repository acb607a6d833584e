// Tensors: typed, shaped parameter payloads.
//
// A Tensor pairs a `TensorSpec` (shape + dtype) with a `Buffer` holding its
// logical bytes. Random initialization produces synthetic buffers so that
// paper-scale models stay cheap to hold; training in the NAS simulator
// "updates" a tensor by re-seeding its content stream (same spec, new bytes).
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/hash.h"
#include "model/dtype.h"

namespace evostore::model {

struct TensorSpec {
  std::vector<int64_t> shape;
  DType dtype = DType::kF32;

  int64_t elements() const {
    int64_t n = 1;
    for (int64_t d : shape) n *= d;
    return n;
  }
  size_t nbytes() const {
    return static_cast<size_t>(elements()) * dtype_size(dtype);
  }

  friend bool operator==(const TensorSpec&, const TensorSpec&) = default;

  /// Canonical content hash of the spec.
  common::Hash128 signature() const;

  /// "f32[128,64]"
  std::string to_string() const;

  /// True when no dim is negative and the byte size fits in int64_t (so
  /// elements() and nbytes() cannot overflow). A decoded spec failing it
  /// fails the stream and is cleared.
  bool size_in_range() const;

  template <class V>
  void fields(V& v) {
    v(dtype, shape);
    if constexpr (V::kDecoding) {
      if (!size_in_range()) {
        v.corrupt("tensor shape out of range");
        shape.clear();
      }
    }
  }
};

class Tensor {
 public:
  Tensor() = default;
  Tensor(TensorSpec spec, common::Buffer data)
      : spec_(std::move(spec)), data_(std::move(data)) {
    assert(data_.size() == spec_.nbytes());
  }

  /// Zero-initialized dense tensor (tests / small models).
  static Tensor zeros(TensorSpec spec);

  /// Pseudo-randomly initialized tensor backed by a synthetic buffer; the
  /// seed fully determines the content.
  static Tensor random(TensorSpec spec, uint64_t seed);

  const TensorSpec& spec() const { return spec_; }
  const common::Buffer& data() const { return data_; }
  size_t nbytes() const { return data_.size(); }

  /// Logical content fingerprint (cheap for synthetic tensors).
  common::Hash128 identity() const { return data_.identity(); }
  bool content_equals(const Tensor& other) const {
    return spec_ == other.spec_ && data_.content_equals(other.data_);
  }

  /// A decoded buffer of the wrong size fails the stream; the tensor is
  /// left empty.
  template <class V>
  void fields(V& v) {
    v(spec_, data_);
    if constexpr (V::kDecoding) {
      if (data_.size() != spec_.nbytes()) {
        v.corrupt("tensor buffer size does not match its spec");
        *this = Tensor();
      }
    }
  }

 private:
  TensorSpec spec_;
  common::Buffer data_;
};

}  // namespace evostore::model
