#include "model/model.h"

#include <gtest/gtest.h>

#include "common/fields.h"

namespace evostore::model {
namespace {

using common::ModelId;

ArchGraph small_graph() {
  auto g = ArchGraph::flatten(make_chain(
      {make_input(8), make_dense(8, 16), make_layer_norm(16),
       make_output(16, 2)}));
  return std::move(g).value();
}

TEST(ModelId, MakeComposesAllocatorAndSeq) {
  ModelId id = ModelId::make(3, 7);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value, (3ull << 32) | 7);
  EXPECT_EQ(id.to_string(), "m" + std::to_string(id.value));
  EXPECT_FALSE(ModelId::invalid().valid());
}

TEST(Segment, NBytesSumsTensors) {
  Segment seg;
  seg.tensors.push_back(Tensor::random({{4, 4}, DType::kF32}, 1));
  seg.tensors.push_back(Tensor::random({{4}, DType::kF32}, 2));
  EXPECT_EQ(seg.nbytes(), 64u + 16u);
}

TEST(Segment, IdentityDependsOnContentAndSpecs) {
  Segment a;
  a.tensors.push_back(Tensor::random({{4}, DType::kF32}, 1));
  Segment b;
  b.tensors.push_back(Tensor::random({{4}, DType::kF32}, 1));
  Segment c;
  c.tensors.push_back(Tensor::random({{4}, DType::kF32}, 2));
  EXPECT_EQ(a.identity(), b.identity());
  EXPECT_NE(a.identity(), c.identity());
}

TEST(Segment, SerdeRoundTrip) {
  Segment seg;
  seg.tensors.push_back(Tensor::random({{8, 8}, DType::kF32}, 3));
  seg.tensors.push_back(Tensor::random({{8}, DType::kF32}, 4));
  common::Bytes bytes = common::encode(seg);
  common::Deserializer d(bytes);
  auto out = common::decode<Segment>(d);
  EXPECT_TRUE(d.finish().ok());
  EXPECT_TRUE(out.content_equals(seg));
}

TEST(Model, RandomFillsEverySegmentPerSpecs) {
  auto g = small_graph();
  Model m = Model::random(ModelId::make(1, 1), g, /*seed=*/5);
  EXPECT_EQ(m.vertex_count(), g.size());
  for (common::VertexId v = 0; v < g.size(); ++v) {
    auto specs = g.def(v).param_specs();
    ASSERT_EQ(m.segment(v).tensors.size(), specs.size()) << "vertex " << v;
    for (size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(m.segment(v).tensors[i].spec(), specs[i]);
    }
  }
  EXPECT_EQ(m.total_bytes(), g.total_param_bytes());
}

TEST(Model, RandomIsSeedDeterministicAndSeedSensitive) {
  auto g = small_graph();
  Model a = Model::random(ModelId::make(1, 1), g, 5);
  Model b = Model::random(ModelId::make(1, 1), g, 5);
  Model c = Model::random(ModelId::make(1, 1), g, 6);
  for (common::VertexId v = 0; v < g.size(); ++v) {
    EXPECT_TRUE(a.segment(v).content_equals(b.segment(v)));
  }
  bool any_diff = false;
  for (common::VertexId v = 0; v < g.size(); ++v) {
    any_diff |= !a.segment(v).content_equals(c.segment(v));
  }
  EXPECT_TRUE(any_diff);
}

TEST(Model, DifferentVerticesGetDifferentContent) {
  // Two dense layers with identical specs must still get distinct weights.
  auto g = ArchGraph::flatten(make_chain(
      {make_input(8), make_dense(8, 8), make_dense(8, 8)}));
  ASSERT_TRUE(g.ok());
  Model m = Model::random(ModelId::make(1, 1), g.value(), 7);
  EXPECT_FALSE(m.segment(1).content_equals(m.segment(2)));
}

TEST(Model, RerandomizeChangesOnlyThatSegment) {
  auto g = small_graph();
  Model m = Model::random(ModelId::make(1, 1), g, 5);
  Segment before_v1 = m.segment(1);
  Segment before_v2 = m.segment(2);
  m.rerandomize_segment(1, /*seed=*/999);
  EXPECT_FALSE(m.segment(1).content_equals(before_v1));
  EXPECT_TRUE(m.segment(2).content_equals(before_v2));
  // Specs preserved.
  auto specs = g.def(1).param_specs();
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(m.segment(1).tensors[i].spec(), specs[i]);
  }
}

TEST(Model, QualityAttribute) {
  auto g = small_graph();
  Model m(ModelId::make(1, 2), g);
  EXPECT_DOUBLE_EQ(m.quality(), 0.0);
  m.set_quality(0.87);
  EXPECT_DOUBLE_EQ(m.quality(), 0.87);
}

TEST(MakeRandomSegment, MatchesModelRandom) {
  auto g = small_graph();
  Model m = Model::random(ModelId::make(1, 1), g, 11);
  Segment s = make_random_segment(g, 1, 11);
  EXPECT_TRUE(s.content_equals(m.segment(1)));
}

}  // namespace
}  // namespace evostore::model
