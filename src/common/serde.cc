#include "common/serde.h"

namespace evostore::common {

namespace {
constexpr uint8_t kDenseTag = 0;
constexpr uint8_t kSyntheticTag = 1;
constexpr uint8_t kSyntheticSliceTag = 2;
}  // namespace

void Serializer::buffer(const Buffer& b) {
  if (!b.is_synthetic()) {
    u8(kDenseTag);
    bytes(b.dense_span());
    return;
  }
  bool sliced = b.stream_offset() != 0;
  u8(sliced ? kSyntheticSliceTag : kSyntheticTag);
  u64(b.seed());
  if (sliced) u64(b.stream_offset());
  u64(b.size());
}

uint8_t Deserializer::u8() {
  if (!status_.ok() || pos_ >= data_.size()) {
    fail("u8 past end");
    return 0;
  }
  return static_cast<uint8_t>(data_[pos_++]);
}

double Deserializer::f64() {
  if (!status_.ok() || pos_ + 8 > data_.size()) {
    fail("f64 past end");
    return 0.0;
  }
  double v;
  std::memcpy(&v, data_.data() + pos_, 8);
  pos_ += 8;
  return v;
}

std::string Deserializer::str() {
  uint64_t n = checked_varint(UINT64_MAX);
  // NOTE: compare against the remaining byte count; `pos_ + n` could wrap.
  if (!status_.ok() || n > data_.size() - pos_) {
    fail("string past end");
    return {};
  }
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

Bytes Deserializer::bytes() {
  uint64_t n = checked_varint(UINT64_MAX);
  if (!status_.ok() || n > data_.size() - pos_) {
    fail("bytes past end");
    return {};
  }
  Bytes b(data_.begin() + static_cast<ptrdiff_t>(pos_),
          data_.begin() + static_cast<ptrdiff_t>(pos_ + n));
  pos_ += n;
  return b;
}

Buffer Deserializer::buffer() {
  uint8_t tag = u8();
  if (!ok()) return {};
  switch (tag) {
    case kDenseTag:
      return Buffer::dense(bytes());
    case kSyntheticTag: {
      uint64_t seed = u64();
      uint64_t size = u64();
      if (!ok()) return {};
      return Buffer::synthetic(size, seed);
    }
    case kSyntheticSliceTag: {
      uint64_t seed = u64();
      uint64_t offset = u64();
      uint64_t size = u64();
      if (!ok()) return {};
      if (size > UINT64_MAX - offset) {
        fail("synthetic slice runs past the end of its stream");
        return {};
      }
      return Buffer::synthetic(size, seed, offset);
    }
    default:
      fail("unknown buffer tag");
      return {};
  }
}

void Deserializer::skip(size_t n) {
  if (!status_.ok() || n > data_.size() - pos_) {
    fail("skip past end");
    pos_ = data_.size();
    return;
  }
  pos_ += n;
}

uint64_t Deserializer::checked_varint(uint64_t max) {
  if (!status_.ok()) return 0;  // sticky error: all later reads fail
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (pos_ >= data_.size()) {
      fail("varint past end");
      return 0;
    }
    auto byte = static_cast<uint8_t>(data_[pos_++]);
    if (shift == 63 && (byte & 0x7e) != 0) {
      fail("varint overflow");
      return 0;
    }
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
    if (shift > 63) {
      fail("varint too long");
      return 0;
    }
  }
  if (v > max) {
    fail("varint exceeds field width");
    return 0;
  }
  return v;
}

}  // namespace evostore::common
