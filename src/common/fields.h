// Declarative wire layouts. A message lists its fields once, in wire order:
//
//   struct RetireRequest {
//     ModelId id;
//     uint64_t token = 0;
//     template <class V> void fields(V& v) { v(id, token); }
//   };
//
// and `encode(msg)` / `decode<T>(d)` drive that one list in both
// directions, so the writer and the reader of a layout cannot drift apart
// (the Thallium `serialize(Archive&)` idiom). Field encodings:
//   bool, uint8_t, one-byte enums   one raw byte; enums are range-checked
//                                   on decode against `last_enumerator(E)`,
//                                   declared next to each enum (found by ADL)
//   uint32_t, uint64_t              LEB128 varint
//   int32_t, int64_t                zig-zag varint
//   double                          8 raw little-endian bytes
//   std::string, Bytes              length-prefixed
//   Buffer                          tagged (Serializer::buffer)
//   Status                          code byte (range-checked) + message
//   ModelId, SegmentKey, Hash128,   their members, in declaration order
//   std::pair
//   std::vector<T>                  varint count, then the elements; the
//                                   reader bounds the count by the input
//                                   left (min_wire_bytes<T>() per element)
//                                   before it allocates
//   nested `fields()` types         their own list
// Layouts a flat list cannot express are written inline in `fields()`:
// an optional tail is `v(found); if (found) v(...)`, and the rare line that
// differs by direction tests the visitor's `kDecoding`, as does post-decode
// validation, which fails the stream through `v.corrupt(msg)`.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/serde.h"
#include "common/status.h"
#include "common/types.h"

namespace evostore::common {

class FieldWriter;

/// A type that lists its own fields.
template <class T>
concept HasFields = requires(T& t, FieldWriter& v) { t.fields(v); };

template <class T>
concept IsVector = std::same_as<T, std::vector<typename T::value_type>>;
template <class T>
concept IsPair =
    std::same_as<T, std::pair<typename T::first_type, typename T::second_type>>;

/// Walks a field list. Composite fields decompose here; the derived
/// visitor's `leaf` handles every scalar, string, vector and Status.
template <class Derived>
class FieldVisitor {
 public:
  template <class... T>
  void operator()(T&... fields) {
    (visit(fields), ...);
  }

  template <class T>
  void visit(T& x) {
    auto& self = static_cast<Derived&>(*this);
    if constexpr (HasFields<T>) {
      x.fields(self);
    } else if constexpr (IsPair<T>) {
      (*this)(x.first, x.second);
    } else if constexpr (std::is_same_v<T, ModelId>) {
      visit(x.value);
    } else if constexpr (std::is_same_v<T, SegmentKey>) {
      (*this)(x.owner, x.vertex);
    } else if constexpr (std::is_same_v<T, Hash128>) {
      (*this)(x.hi, x.lo);
    } else {
      self.leaf(x);
    }
  }
};

class FieldWriter : public FieldVisitor<FieldWriter> {
 public:
  static constexpr bool kDecoding = false;
  explicit FieldWriter(Serializer& s) : s_(&s) {}

  template <class T>
  void leaf(T& x) {
    if constexpr (std::is_enum_v<T>) {
      static_assert(sizeof(T) == 1, "wire enums are one byte");
      s_->u8(static_cast<uint8_t>(x));
    } else if constexpr (std::is_same_v<T, bool>) {
      s_->boolean(x);
    } else if constexpr (std::is_same_v<T, uint8_t>) {
      s_->u8(x);
    } else if constexpr (std::is_same_v<T, uint32_t>) {
      s_->u32(x);
    } else if constexpr (std::is_same_v<T, uint64_t>) {
      s_->u64(x);
    } else if constexpr (std::is_same_v<T, int32_t> ||
                         std::is_same_v<T, int64_t>) {
      s_->i64(x);
    } else if constexpr (std::is_same_v<T, double>) {
      s_->f64(x);
    } else if constexpr (std::is_same_v<T, std::string>) {
      s_->str(x);
    } else if constexpr (std::is_same_v<T, Bytes>) {
      s_->bytes(x);
    } else if constexpr (std::is_same_v<T, Buffer>) {
      s_->buffer(x);
    } else if constexpr (std::is_same_v<T, Status>) {
      s_->u8(static_cast<uint8_t>(x.code()));
      s_->str(x.message());
    } else {
      static_assert(IsVector<T>, "no wire encoding for this field type");
      s_->u64(x.size());
      for (auto& e : x) visit(e);
    }
  }

 private:
  Serializer* s_;
};

/// Sums a lower bound on the encoded size of a field list: every varint,
/// byte and length prefix is at least one byte, a double is eight, a Buffer
/// is a tag plus a length, and an optional tail counts as absent.
class MinWireBytes : public FieldVisitor<MinWireBytes> {
 public:
  static constexpr bool kDecoding = false;
  size_t total = 0;

  template <class T>
  void leaf(const T&) {
    if constexpr (std::is_same_v<T, double>) {
      total += 8;
    } else if constexpr (std::is_same_v<T, Status> ||
                         std::is_same_v<T, Buffer>) {
      total += 2;
    } else {
      total += 1;
    }
  }
};

/// Lower bound on the encoded size of any T, for vector count checks. A
/// `fields()` type may declare `kMinWireBytes` as a floor above the sum.
template <class T>
size_t min_wire_bytes() {
  static const size_t bytes = [] {
    T probe{};
    MinWireBytes m;
    m.visit(probe);
    if constexpr (requires { T::kMinWireBytes; }) {
      return std::max<size_t>(m.total, T::kMinWireBytes);
    }
    return m.total;
  }();
  return bytes;
}

class FieldReader : public FieldVisitor<FieldReader> {
 public:
  static constexpr bool kDecoding = true;
  explicit FieldReader(Deserializer& d) : d_(&d) {}

  /// See Deserializer::check_count.
  bool check_count(uint64_t n, size_t min_bytes_each) {
    return d_->check_count(n, min_bytes_each);
  }

  /// For `fields()` post-decode checks; see Deserializer::corrupt.
  void corrupt(std::string msg) { d_->corrupt(std::move(msg)); }

  template <class T>
  void leaf(T& x) {
    if constexpr (std::is_enum_v<T>) {
      static_assert(sizeof(T) == 1, "wire enums are one byte");
      x = read_enum<T>();
    } else if constexpr (std::is_same_v<T, bool>) {
      x = d_->boolean();
    } else if constexpr (std::is_same_v<T, uint8_t>) {
      x = d_->u8();
    } else if constexpr (std::is_same_v<T, uint32_t>) {
      x = d_->u32();
    } else if constexpr (std::is_same_v<T, uint64_t>) {
      x = d_->u64();
    } else if constexpr (std::is_same_v<T, int32_t>) {
      x = static_cast<int32_t>(d_->i64());
    } else if constexpr (std::is_same_v<T, int64_t>) {
      x = d_->i64();
    } else if constexpr (std::is_same_v<T, double>) {
      x = d_->f64();
    } else if constexpr (std::is_same_v<T, std::string>) {
      x = d_->str();
    } else if constexpr (std::is_same_v<T, Bytes>) {
      x = d_->bytes();
    } else if constexpr (std::is_same_v<T, Buffer>) {
      x = d_->buffer();
    } else if constexpr (std::is_same_v<T, Status>) {
      ErrorCode code = read_enum<ErrorCode>();
      std::string msg = d_->str();
      x = Status(code, std::move(msg));
    } else {
      static_assert(IsVector<T>, "no wire encoding for this field type");
      uint64_t n = d_->u64();
      if (!check_count(n, min_wire_bytes<typename T::value_type>())) return;
      x.resize(n);
      for (auto& e : x) {
        if (!d_->ok()) break;
        visit(e);
      }
    }
  }

 private:
  template <class E>
  E read_enum() {
    uint8_t raw = d_->u8();
    if (raw > static_cast<uint8_t>(last_enumerator(E{}))) {
      d_->corrupt("enum value " + std::to_string(raw) + " out of range");
      return E{};
    }
    return static_cast<E>(raw);
  }

  Deserializer* d_;
};

/// Append the encoding of `msg` to `s`.
template <class T>
void encode_to(Serializer& s, const T& msg) {
  FieldWriter w(s);
  // The walk hands out non-const references so one `fields()` serves both
  // directions; the writer never modifies through them.
  w.visit(const_cast<T&>(msg));
}

template <class T>
Bytes encode(const T& msg) {
  Serializer s;
  encode_to(s, msg);
  return std::move(s).take();
}

/// Decode a T from `d` (sticky-error: check `d.ok()` / `d.finish()`).
template <class T>
T decode(Deserializer& d) {
  T out{};
  FieldReader r(d);
  r.visit(out);
  return out;
}

}  // namespace evostore::common
