#include "common/serde.h"

#include <gtest/gtest.h>

#include <limits>

namespace evostore::common {
namespace {

TEST(Serde, ScalarRoundTrip) {
  Serializer s;
  s.u8(200);
  s.u32(123456);
  s.u64(0xdeadbeefcafeULL);
  s.i64(-42);
  s.boolean(true);
  s.f64(3.14159);
  Bytes data = std::move(s).take();

  Deserializer d(data);
  EXPECT_EQ(d.u8(), 200);
  EXPECT_EQ(d.u32(), 123456u);
  EXPECT_EQ(d.u64(), 0xdeadbeefcafeULL);
  EXPECT_EQ(d.i64(), -42);
  EXPECT_TRUE(d.boolean());
  EXPECT_DOUBLE_EQ(d.f64(), 3.14159);
  EXPECT_TRUE(d.finish().ok());
}

TEST(Serde, VarintBoundaries) {
  Serializer s;
  const uint64_t values[] = {0,     127,   128,
                             16383, 16384, std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : values) s.u64(v);
  Deserializer d(s.data());
  EXPECT_EQ(d.u64(), 0u);
  EXPECT_EQ(d.u64(), 127u);
  EXPECT_EQ(d.u64(), 128u);
  EXPECT_EQ(d.u64(), 16383u);
  EXPECT_EQ(d.u64(), 16384u);
  EXPECT_EQ(d.u64(), std::numeric_limits<uint64_t>::max());
  EXPECT_TRUE(d.finish().ok());
}

TEST(Serde, ZigzagExtremes) {
  Serializer s;
  s.i64(std::numeric_limits<int64_t>::min());
  s.i64(std::numeric_limits<int64_t>::max());
  s.i64(0);
  s.i64(-1);
  Deserializer d(s.data());
  EXPECT_EQ(d.i64(), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(d.i64(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(d.i64(), 0);
  EXPECT_EQ(d.i64(), -1);
}

TEST(Serde, StringsAndBytes) {
  Serializer s;
  s.str("");
  s.str("hello");
  s.str(std::string(1000, 'z'));
  Bytes blob{std::byte{1}, std::byte{0}, std::byte{255}};
  s.bytes(blob);
  Deserializer d(s.data());
  EXPECT_EQ(d.str(), "");
  EXPECT_EQ(d.str(), "hello");
  EXPECT_EQ(d.str(), std::string(1000, 'z'));
  EXPECT_EQ(d.bytes(), blob);
  EXPECT_TRUE(d.finish().ok());
}

TEST(Serde, DenseBufferRoundTrip) {
  Serializer s;
  Buffer b = Buffer::copy(std::as_bytes(std::span("payload", 7)));
  s.buffer(b);
  Deserializer d(s.data());
  Buffer out = d.buffer();
  EXPECT_TRUE(out.content_equals(b));
  EXPECT_FALSE(out.is_synthetic());
}

TEST(Serde, SyntheticBufferTravelsAsDescriptor) {
  Serializer s;
  Buffer b = Buffer::synthetic(1ull << 32, 12345);  // 4 GB logical
  s.buffer(b);
  EXPECT_LT(s.size(), 64u);  // descriptor, not payload
  Deserializer d(s.data());
  Buffer out = d.buffer();
  EXPECT_TRUE(out.is_synthetic());
  EXPECT_EQ(out.size(), b.size());
  EXPECT_EQ(out.seed(), b.seed());
}

TEST(Serde, OffsetSyntheticSliceTravelsAsDescriptor) {
  Buffer b = Buffer::synthetic(100, 7).slice(10, 20);
  Serializer s;
  s.buffer(b);
  EXPECT_LT(s.size(), 64u);  // descriptor, not payload
  Deserializer d(s.data());
  Buffer out = d.buffer();
  EXPECT_TRUE(d.finish().ok());
  EXPECT_TRUE(out.is_synthetic());
  EXPECT_EQ(out.seed(), 7u);
  EXPECT_EQ(out.stream_offset(), 10u);
  EXPECT_EQ(out.size(), 20u);
  EXPECT_TRUE(out.content_equals(b));
  // Byte-wise, not just by descriptor: the decoded slice reads the same
  // bytes as a dense copy of the original.
  EXPECT_TRUE(out.content_equals(b.materialize()));
}

TEST(Serde, LargeOffsetSyntheticSliceTravelsAsDescriptor) {
  // A 4 GiB slice near the end of a 1 TiB stream.
  const uint64_t stream = 1ull << 40;
  const uint64_t len = 1ull << 32;
  const uint64_t offset = stream - len - 5;
  Buffer b = Buffer::synthetic(stream, 42).slice(offset, len);
  Serializer s;
  s.buffer(b);
  EXPECT_LT(s.size(), 64u);
  Deserializer d(s.data());
  Buffer out = d.buffer();
  EXPECT_TRUE(d.finish().ok());
  EXPECT_TRUE(out.is_synthetic());
  EXPECT_EQ(out.resident_bytes(), 0u);
  EXPECT_EQ(out.stream_offset(), offset);
  EXPECT_EQ(out.size(), len);
  EXPECT_TRUE(out.content_equals(b));
  // Spot-check the first and last bytes against the stream itself.
  for (uint64_t i : {uint64_t{0}, uint64_t{1}, uint64_t{7}, len - 1}) {
    Bytes one(1);
    out.read(i, one);
    EXPECT_EQ(one[0], Buffer::synthetic_byte(42, offset + i)) << i;
  }
}

TEST(Serde, PinnedBufferEncodings) {
  auto encode = [](const Buffer& b) {
    Serializer s;
    s.buffer(b);
    return std::move(s).take();
  };
  auto bytes_of = [](std::initializer_list<int> v) {
    Bytes out;
    for (int x : v) out.push_back(static_cast<std::byte>(x));
    return out;
  };
  // Tag 0: dense, length-prefixed content.
  EXPECT_EQ(encode(Buffer::copy(bytes_of({0xab, 0xcd}))),
            bytes_of({0x00, 0x02, 0xab, 0xcd}));
  // Tag 1: synthetic at stream offset 0, (seed, size) — the encoding every
  // stored and wire message has always used. Offset-0 slices keep it.
  const Bytes tag1 = bytes_of({0x01, 0xb9, 0x60, 0x80, 0x80, 0x80, 0x80, 0x10});
  EXPECT_EQ(encode(Buffer::synthetic(1ull << 32, 12345)), tag1);
  EXPECT_EQ(encode(Buffer::synthetic(1ull << 33, 12345).slice(0, 1ull << 32)),
            tag1);
  // Tag 2: synthetic slice, (seed, offset, size).
  EXPECT_EQ(encode(Buffer::synthetic(1000, 5).slice(300, 200)),
            bytes_of({0x02, 0x05, 0xac, 0x02, 0xc8, 0x01}));
}

TEST(Serde, SyntheticSliceOverflowIsCorruption) {
  auto decode = [](uint64_t offset, uint64_t size) {
    Serializer s;
    s.u8(2);
    s.u64(9);
    s.u64(offset);
    s.u64(size);
    Deserializer d(s.data());
    Buffer out = d.buffer();
    return std::make_pair(d.finish(), out);
  };
  const uint64_t kMax = std::numeric_limits<uint64_t>::max();
  // The last representable slice ends exactly at the end of the stream.
  auto [fits, tail] = decode(kMax - 9, 9);
  EXPECT_TRUE(fits.ok());
  EXPECT_TRUE(tail.is_synthetic());
  EXPECT_EQ(tail.stream_offset(), kMax - 9);
  for (auto [offset, size] : {std::pair{kMax - 9, uint64_t{10}},
                              std::pair{kMax, uint64_t{1}},
                              std::pair{uint64_t{1}, kMax}}) {
    auto [st, out] = decode(offset, size);
    EXPECT_EQ(st.code(), ErrorCode::kCorruption) << offset << "+" << size;
    EXPECT_EQ(out.size(), 0u);
  }
}

TEST(Serde, TruncatedInputSetsStickyError) {
  Serializer s;
  s.str("hello world");
  Bytes data = std::move(s).take();
  data.resize(4);  // cut mid-string
  Deserializer d(data);
  (void)d.str();
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), ErrorCode::kCorruption);
  // Sticky: subsequent reads stay failed and return defaults.
  EXPECT_EQ(d.u64(), 0u);
  EXPECT_FALSE(d.finish().ok());
}

TEST(Serde, TrailingBytesFailFinish) {
  Serializer s;
  s.u8(1);
  s.u8(2);
  Deserializer d(s.data());
  EXPECT_EQ(d.u8(), 1);
  EXPECT_FALSE(d.finish().ok());
  EXPECT_EQ(d.u8(), 2);
  EXPECT_TRUE(d.finish().ok());
}

TEST(Serde, MalformedVarintOverflow) {
  Bytes data(11, std::byte{0xff});  // endless continuation bits
  Deserializer d(data);
  (void)d.u64();
  EXPECT_FALSE(d.ok());
}

TEST(Serde, U32RangeEnforced) {
  Serializer s;
  s.u64(1ull << 40);
  Deserializer d(s.data());
  (void)d.u32();
  EXPECT_FALSE(d.ok());
}

TEST(Serde, UnknownBufferTagFails) {
  Bytes data{std::byte{9}};
  Deserializer d(data);
  (void)d.buffer();
  EXPECT_FALSE(d.ok());
}

TEST(Serde, SkipAndRemaining) {
  Serializer s;
  s.u8(1);
  s.u8(2);
  s.u8(3);
  Deserializer d(s.data());
  d.skip(2);
  EXPECT_EQ(d.remaining().size(), 1u);
  EXPECT_EQ(d.u8(), 3);
  d.skip(1);
  EXPECT_FALSE(d.ok());
}

TEST(Serde, EmptyInput) {
  Deserializer d(std::span<const std::byte>{});
  EXPECT_TRUE(d.at_end());
  EXPECT_TRUE(d.finish().ok());
  (void)d.u8();
  EXPECT_FALSE(d.ok());
}

}  // namespace
}  // namespace evostore::common
