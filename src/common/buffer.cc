#include "common/buffer.h"

#include <cassert>
#include <cstdint>
#include <cstring>

#include "common/rng.h"

namespace evostore::common {

namespace {

// Fill `out` with synthetic stream bytes starting at absolute position `pos`.
void fill_synthetic(uint64_t seed, uint64_t pos, std::span<std::byte> out) {
  size_t n = out.size();
  size_t i = 0;
  // Leading partial word.
  while (i < n && (pos + i) % 8 != 0) {
    out[i] = Buffer::synthetic_byte(seed, pos + i);
    ++i;
  }
  // Whole words.
  for (; i + 8 <= n; i += 8) {
    uint64_t word = SplitMix64::at(seed, (pos + i) / 8);
    std::memcpy(out.data() + i, &word, 8);
  }
  // Trailing partial word.
  for (; i < n; ++i) {
    out[i] = Buffer::synthetic_byte(seed, pos + i);
  }
}

}  // namespace

Buffer Buffer::dense(Bytes bytes) {
  size_t n = bytes.size();
  return Buffer(std::make_shared<const Bytes>(std::move(bytes)), 0, n, 0);
}

Buffer Buffer::copy(std::span<const std::byte> bytes) {
  return dense(Bytes(bytes.begin(), bytes.end()));
}

Buffer Buffer::zeros(size_t size) { return dense(Bytes(size)); }

Buffer Buffer::synthetic(size_t size, uint64_t seed, uint64_t stream_offset) {
  assert(size <= UINT64_MAX - stream_offset);
  return Buffer(nullptr, stream_offset, size, seed);
}

void Buffer::read(size_t offset, std::span<std::byte> out) const {
  assert(offset + out.size() <= size_);
  if (out.empty()) return;
  if (data_) {
    std::memcpy(out.data(), data_->data() + offset_ + offset, out.size());
  } else {
    fill_synthetic(seed_, offset_ + offset, out);
  }
}

Bytes Buffer::to_bytes() const {
  Bytes out(size_);
  read(0, out);
  return out;
}

Buffer Buffer::materialize() const {
  if (!is_synthetic()) return *this;
  return dense(to_bytes());
}

Buffer Buffer::slice(size_t offset, size_t len) const {
  assert(offset + len <= size_);
  if (len == 0) return Buffer();
  return Buffer(data_, offset_ + offset, len, seed_);
}

Hash128 Buffer::content_hash() const {
  if (cached_hash_) return *cached_hash_;
  // Hash in fixed-size chunks on EVERY path so dense and synthetic copies of
  // the same logical content produce the same digest (the per-chunk framing
  // inside Hasher128 makes the digest chunk-boundary sensitive, so the
  // boundaries must be representation-independent).
  constexpr size_t kChunk = 64 * 1024;
  Hasher128 h;
  h.u64(size_);
  if (data_) {
    auto span = dense_span();
    for (size_t off = 0; off < size_; off += kChunk) {
      size_t n = std::min(kChunk, size_ - off);
      h.bytes(span.subspan(off, n));
    }
  } else {
    Bytes chunk(std::min<size_t>(kChunk, std::max<size_t>(size_, 1)));
    for (size_t off = 0; off < size_; off += kChunk) {
      size_t n = std::min(kChunk, size_ - off);
      read(off, std::span<std::byte>(chunk.data(), n));
      h.bytes(std::span<const std::byte>(chunk.data(), n));
    }
  }
  Hash128 result = h.finish();
  cached_hash_ = std::make_shared<const Hash128>(result);
  return result;
}

Hash128 Buffer::identity() const {
  if (is_synthetic()) {
    Hasher128 h(0x5e1ff00dULL);
    h.u64(seed_).u64(offset_).u64(size_);
    return h.finish();
  }
  return content_hash();
}

bool Buffer::content_equals(const Buffer& other) const {
  if (size_ != other.size_) return false;
  if (size_ == 0) return true;
  // Fast path: identical descriptors.
  if (is_synthetic() && other.is_synthetic()) {
    if (seed_ == other.seed_ && offset_ == other.offset_) return true;
  } else if (data_ && data_ == other.data_ && offset_ == other.offset_) {
    return true;
  }
  // General path: chunked compare of logical content.
  constexpr size_t kChunk = 64 * 1024;
  Bytes a(std::min<size_t>(kChunk, size_));
  Bytes b(a.size());
  for (size_t off = 0; off < size_; off += kChunk) {
    size_t n = std::min(kChunk, size_ - off);
    read(off, std::span<std::byte>(a.data(), n));
    other.read(off, std::span<std::byte>(b.data(), n));
    if (std::memcmp(a.data(), b.data(), n) != 0) return false;
  }
  return true;
}

std::span<const std::byte> Buffer::dense_span() const {
  assert(!is_synthetic());
  if (!data_) return {};
  return std::span<const std::byte>(data_->data() + offset_, size_);
}

std::byte Buffer::synthetic_byte(uint64_t seed, uint64_t pos) {
  uint64_t word = SplitMix64::at(seed, pos / 8);
  return static_cast<std::byte>((word >> (8 * (pos % 8))) & 0xff);
}

}  // namespace evostore::common
