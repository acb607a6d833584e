#include "storage/h5file.h"

#include <gtest/gtest.h>

namespace evostore::storage {
namespace {

using common::Buffer;
using model::DType;
using model::Tensor;
using model::TensorSpec;

TEST(H5File, WriteReadRoundTrip) {
  H5Writer w;
  w.put_attr("framework", "evostore");
  ASSERT_TRUE(w.put_dataset("/weights/dense/kernel",
                            Tensor::random({{16, 8}, DType::kF32}, 1))
                  .ok());
  ASSERT_TRUE(w.put_dataset("/weights/dense/bias",
                            Tensor::random({{16}, DType::kF32}, 2))
                  .ok());
  auto extents = std::move(w).finish();
  EXPECT_EQ(extents.size(), 3u);  // TOC + 2 payloads

  auto r = H5Reader::open(extents);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->dataset_count(), 2u);
  EXPECT_TRUE(r->has_dataset("/weights/dense/kernel"));
  EXPECT_FALSE(r->has_dataset("/weights/dense/gamma"));
  auto attr = r->attr("framework");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value(), "evostore");

  auto kernel = r->dataset("/weights/dense/kernel");
  ASSERT_TRUE(kernel.ok());
  EXPECT_EQ(kernel->spec(), (TensorSpec{{16, 8}, DType::kF32}));
  EXPECT_TRUE(kernel->content_equals(Tensor::random({{16, 8}, DType::kF32}, 1)));
}

TEST(H5File, DatasetOrderPreserved) {
  H5Writer w;
  ASSERT_TRUE(w.put_dataset("/b", Tensor::zeros({{2}, DType::kF32})).ok());
  ASSERT_TRUE(w.put_dataset("/a", Tensor::zeros({{2}, DType::kF32})).ok());
  auto r = H5Reader::open(std::move(w).finish());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->dataset_paths(), (std::vector<std::string>{"/b", "/a"}));
}

TEST(H5File, DuplicateDatasetRejected) {
  H5Writer w;
  ASSERT_TRUE(w.put_dataset("/x", Tensor::zeros({{1}, DType::kF32})).ok());
  EXPECT_EQ(w.put_dataset("/x", Tensor::zeros({{1}, DType::kF32})).code(),
            common::ErrorCode::kAlreadyExists);
}

TEST(H5File, MissingDatasetAndAttr) {
  H5Writer w;
  auto r = H5Reader::open(std::move(w).finish());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->dataset("/none").status().code(), common::ErrorCode::kNotFound);
  EXPECT_EQ(r->attr("none").status().code(), common::ErrorCode::kNotFound);
}

TEST(H5File, SyntheticPayloadsStayUnmaterialized) {
  H5Writer w;
  // A "4 GB" tensor: the file image must not materialize it.
  TensorSpec spec{{32768, 32768}, DType::kF32};
  ASSERT_TRUE(w.put_dataset("/huge", Tensor::random(spec, 9)).ok());
  auto extents = std::move(w).finish();
  size_t resident = 0;
  for (const auto& e : extents) resident += e.resident_bytes();
  EXPECT_LT(resident, 4096u);  // only the TOC is dense
  auto r = H5Reader::open(extents);
  ASSERT_TRUE(r.ok());
  auto t = r->dataset("/huge");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->nbytes(), spec.nbytes());
}

TEST(H5File, EmptyImageIsCorrupt) {
  EXPECT_EQ(H5Reader::open({}).status().code(), common::ErrorCode::kCorruption);
}

TEST(H5File, BadMagicRejected) {
  std::vector<Buffer> extents;
  extents.push_back(Buffer::zeros(64));
  EXPECT_EQ(H5Reader::open(std::move(extents)).status().code(),
            common::ErrorCode::kCorruption);
}

TEST(H5File, SyntheticTocRejectedUnread) {
  // A 1 TiB synthetic TOC is corrupt; opening must not materialize it.
  std::vector<Buffer> extents;
  extents.push_back(Buffer::synthetic(1ull << 40, 3));
  EXPECT_EQ(H5Reader::open(std::move(extents)).status().code(),
            common::ErrorCode::kCorruption);
}

TEST(H5File, ExtentCountMismatchRejected) {
  H5Writer w;
  ASSERT_TRUE(w.put_dataset("/x", Tensor::zeros({{4}, DType::kF32})).ok());
  auto extents = std::move(w).finish();
  extents.pop_back();  // drop the payload
  EXPECT_FALSE(H5Reader::open(std::move(extents)).ok());
}

TEST(H5File, PayloadSizeMismatchRejected) {
  H5Writer w;
  ASSERT_TRUE(w.put_dataset("/x", Tensor::zeros({{4}, DType::kF32})).ok());
  auto extents = std::move(w).finish();
  extents[1] = Buffer::zeros(3);  // wrong size
  EXPECT_FALSE(H5Reader::open(std::move(extents)).ok());
}

TEST(H5File, KerasLikeLayout) {
  // One dataset per tensor of every layer, like a Keras weights file.
  H5Writer w;
  int id = 0;
  for (const char* layer : {"dense_1", "dense_2", "attn_1"}) {
    for (const char* t : {"kernel:0", "bias:0"}) {
      ASSERT_TRUE(w.put_dataset("/model_weights/" + std::string(layer) + "/" + t,
                                Tensor::random({{8, 8}, DType::kF32},
                                               static_cast<uint64_t>(id++)))
                      .ok());
    }
  }
  auto r = H5Reader::open(std::move(w).finish());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->dataset_count(), 6u);
  EXPECT_TRUE(r->has_dataset("/model_weights/attn_1/bias:0"));
}

}  // namespace
}  // namespace evostore::storage
