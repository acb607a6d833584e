#include "model/tensor.h"

#include <gtest/gtest.h>

#include "common/fields.h"

namespace evostore::model {
namespace {

common::Bytes spec_bytes(uint8_t dtype, const std::vector<int64_t>& dims) {
  common::Serializer s;
  s.u8(dtype);
  s.u64(dims.size());
  for (int64_t d : dims) s.i64(d);
  return std::move(s).take();
}

TEST(DType, SizesAndNames) {
  EXPECT_EQ(dtype_size(DType::kF32), 4u);
  EXPECT_EQ(dtype_size(DType::kF64), 8u);
  EXPECT_EQ(dtype_size(DType::kF16), 2u);
  EXPECT_EQ(dtype_size(DType::kBF16), 2u);
  EXPECT_EQ(dtype_size(DType::kI8), 1u);
  EXPECT_EQ(dtype_size(DType::kI32), 4u);
  EXPECT_EQ(dtype_size(DType::kI64), 8u);
  EXPECT_EQ(dtype_name(DType::kF32), "f32");
  EXPECT_EQ(dtype_name(DType::kBF16), "bf16");
}

TEST(TensorSpec, ElementsAndBytes) {
  TensorSpec s{{3, 4, 5}, DType::kF32};
  EXPECT_EQ(s.elements(), 60);
  EXPECT_EQ(s.nbytes(), 240u);
  TensorSpec scalar{{}, DType::kF64};
  EXPECT_EQ(scalar.elements(), 1);
  EXPECT_EQ(scalar.nbytes(), 8u);
}

TEST(TensorSpec, ToStringFormat) {
  TensorSpec s{{128, 64}, DType::kF32};
  EXPECT_EQ(s.to_string(), "f32[128,64]");
}

TEST(TensorSpec, SignatureDistinguishesShapeAndDtype) {
  TensorSpec a{{2, 3}, DType::kF32};
  TensorSpec b{{3, 2}, DType::kF32};
  TensorSpec c{{2, 3}, DType::kF16};
  TensorSpec d{{6}, DType::kF32};
  EXPECT_EQ(a.signature(), (TensorSpec{{2, 3}, DType::kF32}.signature()));
  EXPECT_NE(a.signature(), b.signature());
  EXPECT_NE(a.signature(), c.signature());
  EXPECT_NE(a.signature(), d.signature());
}

TEST(TensorSpec, SerdeRoundTrip) {
  TensorSpec s{{7, 1, 9}, DType::kI64};
  common::Bytes bytes = common::encode(s);
  EXPECT_EQ(bytes, spec_bytes(6, {7, 1, 9}));
  common::Deserializer d(bytes);
  EXPECT_EQ(common::decode<TensorSpec>(d), s);
  EXPECT_TRUE(d.finish().ok());
}

TEST(TensorSpec, DecodeRejectsOutOfRangeDType) {
  for (uint8_t dtype : {7, 200}) {
    common::Bytes bytes = spec_bytes(dtype, {4});
    common::Deserializer d(bytes);
    (void)common::decode<TensorSpec>(d);
    EXPECT_FALSE(d.ok()) << int{dtype};
  }
}

TEST(TensorSpec, DecodeRejectsNegativeAndOverflowingDims) {
  // {2^40, 2^40} overflows the element count; {2^61} of i64 overflows the
  // byte size; {2^40, 2^40, 0} overflows before the zero dim is reached.
  const int64_t giant = int64_t{1} << 40;
  for (const auto& [dtype, dims] :
       std::vector<std::pair<uint8_t, std::vector<int64_t>>>{
           {0, {giant, giant}},
           {6, {int64_t{1} << 61}},
           {0, {giant, giant, 0}},
           {0, {-1, 4}},
           {0, {4, -4}}}) {
    common::Bytes bytes = spec_bytes(dtype, dims);
    common::Deserializer d(bytes);
    TensorSpec spec = common::decode<TensorSpec>(d);
    EXPECT_FALSE(d.ok());
    EXPECT_TRUE(spec.shape.empty());
  }
  // The largest sizes that fit still decode.
  for (const auto& dims : std::vector<std::vector<int64_t>>{
           {int64_t{1} << 30, int64_t{1} << 30, 0}, {0, giant, giant},
           {int64_t{1} << 60}}) {
    common::Bytes bytes = spec_bytes(0, dims);
    common::Deserializer d(bytes);
    TensorSpec spec = common::decode<TensorSpec>(d);
    EXPECT_TRUE(d.finish().ok());
    EXPECT_EQ(spec.shape, dims);
  }
}

TEST(Tensor, ZerosHaveRightSizeAndContent) {
  Tensor t = Tensor::zeros({{4, 4}, DType::kF32});
  EXPECT_EQ(t.nbytes(), 64u);
  for (std::byte b : t.data().to_bytes()) EXPECT_EQ(b, std::byte{0});
}

TEST(Tensor, RandomIsSeedDeterministic) {
  Tensor a = Tensor::random({{16}, DType::kF32}, 7);
  Tensor b = Tensor::random({{16}, DType::kF32}, 7);
  Tensor c = Tensor::random({{16}, DType::kF32}, 8);
  EXPECT_TRUE(a.content_equals(b));
  EXPECT_FALSE(a.content_equals(c));
  EXPECT_EQ(a.identity(), b.identity());
  EXPECT_NE(a.identity(), c.identity());
}

TEST(Tensor, RandomIsSyntheticBacked) {
  Tensor t = Tensor::random({{1024, 1024}, DType::kF32}, 1);
  EXPECT_TRUE(t.data().is_synthetic());
  EXPECT_EQ(t.data().resident_bytes(), 0u);
}

TEST(Tensor, ContentEqualsChecksSpecToo) {
  Tensor a = Tensor::random({{8}, DType::kF32}, 1);
  Tensor b(TensorSpec{{4}, DType::kF64}, common::Buffer::synthetic(32, 1));
  // Same bytes, different spec.
  EXPECT_FALSE(a.content_equals(b));
}

TEST(Tensor, SerdeRoundTripSynthetic) {
  Tensor t = Tensor::random({{32, 2}, DType::kF16}, 42);
  common::Bytes bytes = common::encode(t);
  common::Deserializer d(bytes);
  Tensor out = common::decode<Tensor>(d);
  EXPECT_TRUE(d.finish().ok());
  EXPECT_TRUE(out.content_equals(t));
  EXPECT_TRUE(out.data().is_synthetic());
}

TEST(Tensor, SerdeRoundTripDense) {
  Tensor t(TensorSpec{{3}, DType::kI32},
           common::Buffer::dense(common::Bytes(12, std::byte{0xab})));
  common::Bytes bytes = common::encode(t);
  common::Deserializer d(bytes);
  Tensor out = common::decode<Tensor>(d);
  EXPECT_TRUE(out.content_equals(t));
}

TEST(Tensor, DeserializeSizeMismatchYieldsEmpty) {
  common::Serializer s;
  common::encode_to(s, TensorSpec{{10}, DType::kF32});
  s.buffer(common::Buffer::zeros(3));  // wrong payload size
  common::Deserializer d(s.data());
  Tensor out = common::decode<Tensor>(d);
  EXPECT_EQ(out.nbytes(), 0u);
  EXPECT_FALSE(d.ok());
}

}  // namespace
}  // namespace evostore::model
