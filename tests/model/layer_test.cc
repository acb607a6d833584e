#include "model/layer.h"

#include <gtest/gtest.h>

#include "common/fields.h"

namespace evostore::model {
namespace {

TEST(LayerDef, HyperparamsKeptSorted) {
  LayerDef def(LayerKind::kDense);
  def.set_int("zeta", 1).set_int("alpha", 2).set_int("mu", 3);
  ASSERT_EQ(def.int_params().size(), 3u);
  EXPECT_EQ(def.int_params()[0].first, "alpha");
  EXPECT_EQ(def.int_params()[1].first, "mu");
  EXPECT_EQ(def.int_params()[2].first, "zeta");
}

TEST(LayerDef, SetOverwrites) {
  LayerDef def(LayerKind::kDense);
  def.set_int("x", 1);
  def.set_int("x", 9);
  EXPECT_EQ(def.get_int("x"), 9);
  EXPECT_EQ(def.int_params().size(), 1u);
  def.set_float("y", 0.5);
  def.set_float("y", 0.7);
  EXPECT_DOUBLE_EQ(def.get_float("y"), 0.7);
}

TEST(LayerDef, GetWithFallback) {
  LayerDef def(LayerKind::kDense);
  EXPECT_EQ(def.get_int("missing", -5), -5);
  EXPECT_DOUBLE_EQ(def.get_float("missing", 2.5), 2.5);
  EXPECT_FALSE(def.has_int("missing"));
}

TEST(LayerDef, SignatureIgnoresName) {
  // The paper is explicit: names cannot be trusted for matching.
  LayerDef a = make_dense(8, 16);
  LayerDef b = make_dense(8, 16);
  b.set_name("completely_different_name");
  EXPECT_EQ(a.signature(), b.signature());
  EXPECT_TRUE(a.same_config(b));
}

TEST(LayerDef, SignatureInsertOrderInvariant) {
  LayerDef a(LayerKind::kConv2D);
  a.set_int("in_ch", 3).set_int("out_ch", 8).set_int("k", 5);
  LayerDef b(LayerKind::kConv2D);
  b.set_int("k", 5).set_int("out_ch", 8).set_int("in_ch", 3);
  EXPECT_EQ(a.signature(), b.signature());
}

TEST(LayerDef, SignatureSensitiveToKindAndParams) {
  EXPECT_NE(make_dense(8, 16).signature(), make_dense(8, 17).signature());
  EXPECT_NE(make_dense(8, 16).signature(), make_dense(16, 8).signature());
  LayerDef dense_like(LayerKind::kOutput);
  dense_like.set_int("in", 8);
  dense_like.set_int("out", 16);
  dense_like.set_int("bias", 1);
  EXPECT_NE(make_dense(8, 16).signature(), dense_like.signature());
  EXPECT_NE(make_activation(0).signature(), make_activation(1).signature());
  EXPECT_NE(make_dropout(0.1).signature(), make_dropout(0.2).signature());
}

TEST(LayerDef, ParamSpecsDense) {
  auto specs = make_dense(8, 16).param_specs();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0], (TensorSpec{{16, 8}, DType::kF32}));
  EXPECT_EQ(specs[1], (TensorSpec{{16}, DType::kF32}));
  auto no_bias = make_dense(8, 16, /*bias=*/false).param_specs();
  EXPECT_EQ(no_bias.size(), 1u);
}

TEST(LayerDef, ParamSpecsConv) {
  auto specs = make_conv2d(3, 8, 5).param_specs();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0], (TensorSpec{{8, 3, 5, 5}, DType::kF32}));
  EXPECT_EQ(specs[1], (TensorSpec{{8}, DType::kF32}));
}

TEST(LayerDef, ParamSpecsAttention) {
  auto specs = make_attention(64, 8).param_specs();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0], (TensorSpec{{192, 64}, DType::kF32}));  // fused QKV
  EXPECT_EQ(specs[1], (TensorSpec{{192}, DType::kF32}));
  EXPECT_EQ(specs[2], (TensorSpec{{64, 64}, DType::kF32}));
  EXPECT_EQ(specs[3], (TensorSpec{{64}, DType::kF32}));
}

TEST(LayerDef, ParamSpecsNorms) {
  EXPECT_EQ(make_layer_norm(32).param_specs().size(), 2u);
  EXPECT_EQ(make_batch_norm(32).param_specs().size(), 2u);
  EXPECT_EQ(make_embedding(1000, 64).param_specs().size(), 1u);
  EXPECT_EQ(make_output(64, 10).param_specs().size(), 2u);
}

TEST(LayerDef, ParameterlessLayers) {
  for (const LayerDef& def :
       {make_input(8), make_activation(0), make_dropout(0.5), make_add(),
        make_concat()}) {
    EXPECT_TRUE(def.param_specs().empty()) << def.to_string();
    EXPECT_EQ(def.param_bytes(), 0u);
  }
}

TEST(LayerDef, ParamBytes) {
  // dense 8->16: 16*8*4 + 16*4 = 512 + 64.
  EXPECT_EQ(make_dense(8, 16).param_bytes(), 576u);
  // f16 halves it.
  EXPECT_EQ(make_dense(8, 16).param_bytes(DType::kF16), 288u);
}

TEST(LayerDef, DropoutQuantizedForStableSignature) {
  // Two rates that round to the same millimantissa share a signature.
  EXPECT_EQ(make_dropout(0.1).signature(), make_dropout(0.1000004).signature());
}

TEST(LayerDef, SerdeRoundTrip) {
  LayerDef def = make_attention(128, 16);
  def.set_name("attn_0");
  def.set_float("temperature", 0.9);
  common::Bytes bytes = common::encode(def);
  common::Deserializer d(bytes);
  LayerDef out = common::decode<LayerDef>(d);
  EXPECT_TRUE(d.finish().ok());
  EXPECT_EQ(out.kind(), LayerKind::kAttention);
  EXPECT_EQ(out.name(), "attn_0");
  EXPECT_EQ(out.signature(), def.signature());
  EXPECT_DOUBLE_EQ(out.get_float("temperature"), 0.9);
}

using Ints = std::vector<std::pair<std::string, int64_t>>;

// kind, name, int params, float params, as the encoder lays them out.
common::Bytes def_bytes(uint8_t kind, const Ints& ints) {
  common::Serializer s;
  s.u8(kind);
  s.str("");
  s.u64(ints.size());
  for (const auto& [k, v] : ints) {
    s.str(k);
    s.i64(v);
  }
  s.u64(0);
  return std::move(s).take();
}

TEST(LayerDef, DecodeRejectsOutOfRangeKind) {
  common::Bytes canonical = def_bytes(13, {{"dim", 4}});
  EXPECT_EQ(canonical, common::encode(LayerDef(LayerKind::kOutput)
                                          .set_int("dim", 4)));
  common::Deserializer ok(canonical);
  (void)common::decode<LayerDef>(ok);
  EXPECT_TRUE(ok.finish().ok());
  for (uint8_t kind : {14, 99}) {
    common::Bytes bytes = def_bytes(kind, {{"dim", 4}});
    common::Deserializer d(bytes);
    (void)common::decode<LayerDef>(d);
    EXPECT_FALSE(d.ok()) << int{kind};
  }
}

TEST(LayerDef, DecodeRejectsUnsortedOrDuplicateParams) {
  // Decoding must not re-sort: a def whose keys arrive out of order is not
  // the canonical def its signature would otherwise claim to be.
  for (const Ints& ints : {Ints{{"out", 2}, {"in", 4}},
                           Ints{{"in", 4}, {"in", 5}}}) {
    common::Bytes bytes = def_bytes(1, ints);
    common::Deserializer d(bytes);
    (void)common::decode<LayerDef>(d);
    EXPECT_EQ(d.status().code(), common::ErrorCode::kCorruption);
  }
}

TEST(LayerDef, ToStringIsInformative) {
  LayerDef def = make_dense(4, 2);
  def.set_name("d1");
  std::string s = def.to_string();
  EXPECT_NE(s.find("dense"), std::string::npos);
  EXPECT_NE(s.find("in=4"), std::string::npos);
  EXPECT_NE(s.find("#d1"), std::string::npos);
}

TEST(LayerKindName, AllKindsNamed) {
  EXPECT_EQ(layer_kind_name(LayerKind::kInput), "input");
  EXPECT_EQ(layer_kind_name(LayerKind::kAttention), "attention");
  EXPECT_EQ(layer_kind_name(LayerKind::kOutput), "output");
}

}  // namespace
}  // namespace evostore::model
