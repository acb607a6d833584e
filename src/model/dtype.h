// Element types for model parameter tensors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace evostore::model {

enum class DType : uint8_t {
  kF32 = 0,
  kF64 = 1,
  kF16 = 2,
  kBF16 = 3,
  kI8 = 4,
  kI32 = 5,
  kI64 = 6,
};

/// Highest valid DType, for decode range checks (common/fields.h).
constexpr DType last_enumerator(DType) { return DType::kI64; }

/// Size of one element in bytes.
size_t dtype_size(DType t);

/// Canonical lowercase name ("f32", ...).
std::string_view dtype_name(DType t);

}  // namespace evostore::model
