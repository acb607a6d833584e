// Buffer: the unit of payload data moved and stored by EvoStore.
//
// A Buffer is an immutable, cheaply-copyable view of `size()` logical bytes
// in one of two representations:
//
//  - *dense*: backed by real bytes (shared, so slicing is zero-copy);
//  - *synthetic*: defined by (seed, stream offset, size); byte i is byte
//    `offset + i` of the deterministic stream `seed`, generated on demand.
//    Slicing a synthetic buffer advances the stream offset, so slices stay
//    synthetic and never materialize.
//
// Serialized form (common/serde): a dense buffer travels as tag 0 plus its
// bytes; a synthetic buffer at stream offset 0 as tag 1 (seed, size); any
// other synthetic buffer as tag 2 (seed, offset, size). Either synthetic tag
// is a descriptor of a few bytes, whatever the logical size.
//
// Synthetic buffers let benchmarks run paper-scale workloads (4 GB models on
// 256 simulated GPUs) in a small resident footprint while every store and
// transport code path still operates on the same `Buffer` type and can read,
// slice, hash, and compare logical content. Tests cross-validate that a
// synthetic buffer and its materialized dense copy behave identically.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/hash.h"

namespace evostore::common {

using Bytes = std::vector<std::byte>;

class Buffer {
 public:
  /// Empty dense buffer.
  Buffer() = default;

  /// Dense buffer taking ownership of `bytes`.
  static Buffer dense(Bytes bytes);
  /// Dense buffer copying from a span.
  static Buffer copy(std::span<const std::byte> bytes);
  /// Dense zero-filled buffer.
  static Buffer zeros(size_t size);
  /// Synthetic buffer of `size` logical bytes: stream `seed` from position
  /// `stream_offset` on. Requires stream_offset + size not to overflow.
  static Buffer synthetic(size_t size, uint64_t seed,
                          uint64_t stream_offset = 0);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool is_synthetic() const { return data_ == nullptr && size_ != 0; }

  /// Stream seed; only meaningful for synthetic buffers.
  uint64_t seed() const { return seed_; }
  /// Stream position of logical byte 0; only meaningful for synthetic
  /// buffers (0 unless the buffer is a slice).
  uint64_t stream_offset() const { return offset_; }

  /// Bytes actually resident in host memory (0 for synthetic buffers).
  size_t resident_bytes() const { return data_ ? data_->size() : 0; }

  /// Copy logical bytes [offset, offset+out.size()) into `out`.
  /// Requires offset + out.size() <= size().
  void read(size_t offset, std::span<std::byte> out) const;

  /// Materialize the full logical content as owned bytes.
  Bytes to_bytes() const;

  /// Materialize as a dense Buffer (no-op for dense buffers).
  Buffer materialize() const;

  /// Zero-copy sub-range view [offset, offset+len). Synthetic slices remain
  /// synthetic. Requires offset + len <= size().
  Buffer slice(size_t offset, size_t len) const;

  /// Hash of the logical content. Streams synthetic content in chunks; cost
  /// is O(size), so avoid on multi-GB buffers in hot paths (use identity()).
  Hash128 content_hash() const;

  /// Cheap fingerprint: equals content_hash() agreement for buffers created
  /// through the same path (synthetic: hashed descriptor; dense: content
  /// hash computed once and cached).
  Hash128 identity() const;

  /// Logical byte-wise equality. Fast paths: same representation/descriptor.
  bool content_equals(const Buffer& other) const;

  /// Direct access to dense storage. Requires !is_synthetic().
  std::span<const std::byte> dense_span() const;

  /// The synthetic stream's byte at absolute stream position `pos`.
  static std::byte synthetic_byte(uint64_t seed, uint64_t pos);

 private:
  Buffer(std::shared_ptr<const Bytes> data, size_t offset, size_t size,
         uint64_t seed)
      : data_(std::move(data)), offset_(offset), size_(size), seed_(seed) {}

  std::shared_ptr<const Bytes> data_;  // null => synthetic (or empty)
  size_t offset_ = 0;                  // into dense storage or synthetic stream
  size_t size_ = 0;
  uint64_t seed_ = 0;
  mutable std::shared_ptr<const Hash128> cached_hash_;
};

}  // namespace evostore::common
