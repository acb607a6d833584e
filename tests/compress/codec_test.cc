// Tensor codec subsystem: round-trip properties for every codec, fallback
// policy, envelope serde, and the client-side stats counters.
#include <gtest/gtest.h>

#include "common/fields.h"
#include "common/rng.h"
#include "compress/compressed_segment.h"
#include "compress/zero_rle.h"
#include "model/model.h"

namespace evostore::compress {
namespace {

using common::Buffer;
using model::DType;
using model::Segment;
using model::Tensor;
using model::TensorSpec;

TensorSpec spec_of(int64_t elems) {
  TensorSpec spec;
  spec.shape = {elems};
  spec.dtype = DType::kF32;
  return spec;
}

Tensor dense_tensor(int64_t elems, uint64_t seed, double zero_fraction) {
  TensorSpec spec = spec_of(elems);
  common::Bytes bytes(spec.nbytes());
  size_t zeros = static_cast<size_t>(zero_fraction *
                                     static_cast<double>(bytes.size()));
  for (size_t i = zeros; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::byte>(common::SplitMix64::at(seed, i) & 0xff);
  }
  return Tensor(spec, Buffer::copy(std::span<const std::byte>(bytes)));
}

Segment dense_segment(size_t tensors, int64_t elems, uint64_t seed,
                      double zero_fraction = 0.0) {
  Segment seg;
  for (size_t t = 0; t < tensors; ++t) {
    seg.tensors.push_back(dense_tensor(elems, seed + t, zero_fraction));
  }
  return seg;
}

Segment synthetic_segment(size_t tensors, int64_t elems, uint64_t seed) {
  Segment seg;
  for (size_t t = 0; t < tensors; ++t) {
    seg.tensors.push_back(Tensor::random(spec_of(elems), seed + t));
  }
  return seg;
}

const common::SegmentKey kBaseKey{common::ModelId::make(1, 7), 3};

// Serialize + deserialize the envelope (as the wire does), then decompress.
Segment round_trip(const CompressedSegment& env, const Segment* base) {
  common::Bytes bytes = common::encode(env);
  common::Deserializer d{std::span<const std::byte>(bytes)};
  auto back = common::decode<CompressedSegment>(d);
  EXPECT_TRUE(d.finish().ok());
  EXPECT_EQ(back, env);
  auto seg = decompress_segment(back, base);
  EXPECT_TRUE(seg.ok()) << seg.status().to_string();
  return seg.ok() ? std::move(seg).value() : Segment{};
}

TEST(Codec, RegistryKnowsAllCodecs) {
  EXPECT_EQ(codec_for(CodecId::kRaw), &raw_codec());
  EXPECT_EQ(codec_for(CodecId::kZeroRle), &zero_rle_codec());
  EXPECT_EQ(codec_for(CodecId::kDeltaVsAncestor), &delta_codec());
  EXPECT_EQ(codec_for(static_cast<CodecId>(200)), nullptr);
  EXPECT_EQ(codec_index(static_cast<CodecId>(200)), kCodecCount);
  EXPECT_FALSE(raw_codec().needs_base());
  EXPECT_TRUE(delta_codec().needs_base());
}

TEST(Codec, RawRoundTripsDenseAndSynthetic) {
  for (const Segment& seg :
       {dense_segment(3, 64, 1), synthetic_segment(2, 256, 9), Segment{}}) {
    auto env = compress_segment(seg, CodecId::kRaw);
    ASSERT_TRUE(env.ok()) << env.status().to_string();
    EXPECT_EQ(env->codec, CodecId::kRaw);
    EXPECT_EQ(env->logical_bytes, seg.nbytes());
    EXPECT_EQ(env->physical_bytes, seg.nbytes());
    EXPECT_FALSE(env->has_base);
    Segment back = round_trip(*env, nullptr);
    EXPECT_TRUE(back.content_equals(seg));
  }
}

TEST(Codec, ZeroRleCompressesZeroHeavyContent) {
  Segment seg = dense_segment(2, 512, 3, /*zero_fraction=*/0.75);
  auto env = compress_segment(seg, CodecId::kZeroRle);
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env->codec, CodecId::kZeroRle);
  EXPECT_LT(env->physical_bytes, env->logical_bytes / 2);
  Segment back = round_trip(*env, nullptr);
  EXPECT_TRUE(back.content_equals(seg));
}

TEST(Codec, ZeroRleFallsBackToRawOnIncompressibleContent) {
  Segment seg = dense_segment(2, 512, 3, /*zero_fraction=*/0.0);
  CodecStatsTable stats{};
  auto env = compress_segment(seg, CodecId::kZeroRle, nullptr, nullptr,
                              &stats);
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env->codec, CodecId::kRaw);
  EXPECT_EQ(env->physical_bytes, seg.nbytes());
  EXPECT_EQ(stats[codec_index(CodecId::kZeroRle)].fallbacks, 1u);
  Segment back = round_trip(*env, nullptr);
  EXPECT_TRUE(back.content_equals(seg));
}

TEST(Codec, DeltaUnchangedSegmentCostsNothing) {
  Segment base = synthetic_segment(3, 1024, 5);
  Segment child = base;  // shares every buffer => identity fast path
  auto env = compress_segment(child, CodecId::kDeltaVsAncestor, &base,
                              &kBaseKey);
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env->codec, CodecId::kDeltaVsAncestor);
  EXPECT_TRUE(env->has_base);
  EXPECT_EQ(env->base, kBaseKey);
  EXPECT_EQ(env->physical_bytes, 0u);
  Segment back = round_trip(*env, &base);
  EXPECT_TRUE(back.content_equals(child));
}

TEST(Codec, DeltaFinetunedSegmentCarriesOnlyChangedSlots) {
  Segment base = synthetic_segment(4, 1024, 5);
  Segment child = base;
  child.tensors[2] = Tensor::random(child.tensors[2].spec(), 777);
  auto env = compress_segment(child, CodecId::kDeltaVsAncestor, &base,
                              &kBaseKey);
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env->codec, CodecId::kDeltaVsAncestor);
  // Exactly one of four equal-size tensors changed.
  EXPECT_EQ(env->physical_bytes, child.tensors[2].nbytes());
  Segment back = round_trip(*env, &base);
  EXPECT_TRUE(back.content_equals(child));
}

TEST(Codec, DeltaDenseDiffCompressesSmallPerturbations) {
  Segment base = dense_segment(2, 1024, 11);
  Segment child = base;
  // Perturb a few bytes of tensor 0: the byte-wise diff is almost all zeros
  // and RLE-compresses far below the raw size.
  common::Bytes bytes(base.tensors[0].data().size());
  base.tensors[0].data().read(0, bytes);
  bytes[10] ^= std::byte{0x5a};
  bytes[100] ^= std::byte{0x21};
  child.tensors[0] =
      Tensor(base.tensors[0].spec(),
             Buffer::copy(std::span<const std::byte>(bytes)));
  auto env = compress_segment(child, CodecId::kDeltaVsAncestor, &base,
                              &kBaseKey);
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env->codec, CodecId::kDeltaVsAncestor);
  EXPECT_LT(env->physical_bytes, child.nbytes() / 10);
  Segment back = round_trip(*env, &base);
  EXPECT_TRUE(back.content_equals(child));
}

TEST(Codec, DeltaDiffAgainstSyntheticBaseIsCorruption) {
  // encode() only diffs dense against dense. A diff record decoded against
  // a synthetic base of the same spec is malformed: Corruption, with the
  // base never materialized.
  Segment base = dense_segment(1, 1024, 11);
  Segment child = base;
  common::Bytes bytes(base.tensors[0].data().size());
  base.tensors[0].data().read(0, bytes);
  bytes[3] ^= std::byte{0x40};
  child.tensors[0] = Tensor(base.tensors[0].spec(),
                            Buffer::copy(std::span<const std::byte>(bytes)));
  auto env = compress_segment(child, CodecId::kDeltaVsAncestor, &base,
                              &kBaseKey);
  ASSERT_TRUE(env.ok());
  ASSERT_EQ(env->codec, CodecId::kDeltaVsAncestor);
  Segment synthetic_base = synthetic_segment(1, 1024, 11);
  ASSERT_EQ(synthetic_base.tensors[0].spec(), base.tensors[0].spec());
  auto seg = decompress_segment(*env, &synthetic_base);
  EXPECT_FALSE(seg.ok());
  EXPECT_EQ(seg.status().code(), common::ErrorCode::kCorruption);
  // The same record still decodes against the dense base it was made from.
  auto good = decompress_segment(*env, &base);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->content_equals(child));
}

TEST(Codec, DeltaWithoutBaseFallsBackToRaw) {
  Segment seg = synthetic_segment(2, 256, 21);
  auto env = compress_segment(seg, CodecId::kDeltaVsAncestor);
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env->codec, CodecId::kRaw);
  EXPECT_FALSE(env->has_base);
  Segment back = round_trip(*env, nullptr);
  EXPECT_TRUE(back.content_equals(seg));
}

TEST(Codec, DeltaAgainstUnrelatedBaseFallsBackToRaw) {
  // Every tensor differs and none is dense-diffable: the delta is as big as
  // raw, so the fallback policy drops the base dependency.
  Segment base = synthetic_segment(3, 256, 1);
  Segment seg = synthetic_segment(3, 256, 1000);
  auto env = compress_segment(seg, CodecId::kDeltaVsAncestor, &base,
                              &kBaseKey);
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env->codec, CodecId::kRaw);
  EXPECT_FALSE(env->has_base);
  Segment back = round_trip(*env, nullptr);
  EXPECT_TRUE(back.content_equals(seg));
}

TEST(Codec, DecompressDeltaWithoutBaseIsAnError) {
  Segment base = synthetic_segment(2, 128, 2);
  Segment child = base;
  child.tensors[1] = Tensor::random(child.tensors[1].spec(), 99);
  auto env = compress_segment(child, CodecId::kDeltaVsAncestor, &base,
                              &kBaseKey);
  ASSERT_TRUE(env.ok());
  ASSERT_TRUE(env->has_base);
  auto seg = decompress_segment(*env, nullptr);
  EXPECT_FALSE(seg.ok());
}

TEST(Codec, DecompressRejectsUnknownCodec) {
  auto env = compress_segment(dense_segment(1, 16, 1), CodecId::kRaw);
  ASSERT_TRUE(env.ok());
  env->codec = static_cast<CodecId>(99);
  auto seg = decompress_segment(*env);
  EXPECT_FALSE(seg.ok());
  EXPECT_EQ(seg.status().code(), common::ErrorCode::kCorruption);
}

TEST(Codec, DecompressRejectsLogicalSizeMismatch) {
  auto env = compress_segment(dense_segment(2, 64, 1), CodecId::kRaw);
  ASSERT_TRUE(env.ok());
  env->logical_bytes += 1;
  auto seg = decompress_segment(*env);
  EXPECT_FALSE(seg.ok());
}

// Property: for any segment shape/content mix and any codec, encode ->
// envelope serde -> decode reproduces the content bit-exactly, and
// physical_bytes never exceeds logical (+ the fallback threshold slack).
TEST(Codec, PropertyRoundTripAcrossShapesAndCodecs) {
  int case_index = 0;
  for (uint64_t seed : {1ull, 42ull, 999ull}) {
    for (size_t tensors : {size_t{0}, size_t{1}, size_t{3}}) {
      for (int64_t elems : {int64_t{1}, int64_t{64}, int64_t{500}}) {
        // Mixed content: even slots synthetic, odd slots dense (half zeros).
        Segment seg;
        for (size_t t = 0; t < tensors; ++t) {
          if (t % 2 == 0) {
            seg.tensors.push_back(Tensor::random(spec_of(elems), seed + t));
          } else {
            seg.tensors.push_back(dense_tensor(elems, seed + t, 0.5));
          }
        }
        // Base: same shapes, every third slot identical to seg.
        Segment base;
        for (size_t t = 0; t < tensors; ++t) {
          base.tensors.push_back(t % 3 == 0 ? seg.tensors[t]
                                            : dense_tensor(elems, seed ^ t,
                                                           0.25));
        }
        for (CodecId codec : {CodecId::kRaw, CodecId::kZeroRle,
                              CodecId::kDeltaVsAncestor}) {
          SCOPED_TRACE("case " + std::to_string(case_index++) + " codec " +
                       std::string(codec_name(codec)));
          auto env = compress_segment(seg, codec, &base, &kBaseKey);
          ASSERT_TRUE(env.ok()) << env.status().to_string();
          EXPECT_EQ(env->logical_bytes, seg.nbytes());
          EXPECT_LE(env->physical_bytes, seg.nbytes());
          Segment back = round_trip(*env, env->has_base ? &base : nullptr);
          EXPECT_TRUE(back.content_equals(seg));
        }
      }
    }
  }
}

TEST(Codec, StatsCountEncodesDecodesAndVolume) {
  CodecStatsTable stats{};
  Segment seg = dense_segment(2, 512, 3, 0.75);
  auto env = compress_segment(seg, CodecId::kZeroRle, nullptr, nullptr,
                              &stats);
  ASSERT_TRUE(env.ok());
  const CodecStats& enc = stats[codec_index(CodecId::kZeroRle)];
  EXPECT_EQ(enc.encodes, 1u);
  EXPECT_EQ(enc.fallbacks, 0u);
  EXPECT_EQ(enc.bytes_in, seg.nbytes());
  EXPECT_EQ(enc.bytes_out, env->physical_bytes);
  EXPECT_LT(enc.ratio(), 1.0);
  auto back = decompress_segment(*env, nullptr, &stats);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(stats[codec_index(CodecId::kZeroRle)].decodes, 1u);
}

TEST(ZeroRle, ByteStreamRoundTripsAndRejectsCorruption) {
  common::Bytes in(1000);
  for (size_t i = 0; i < in.size(); ++i) {
    in[i] = (i % 10 < 7) ? std::byte{0}
                         : static_cast<std::byte>(
                               common::SplitMix64::at(4, i) & 0xff);
  }
  common::Bytes encoded = zero_rle_encode(std::span<const std::byte>(in));
  EXPECT_LT(encoded.size(), in.size());
  common::Bytes out(in.size());
  ASSERT_TRUE(zero_rle_decode(std::span<const std::byte>(encoded),
                              std::span<std::byte>(out))
                  .ok());
  EXPECT_EQ(in, out);
  // Truncated stream must fail cleanly.
  auto truncated = std::span<const std::byte>(encoded).first(
      encoded.size() / 2);
  EXPECT_FALSE(zero_rle_decode(truncated, std::span<std::byte>(out)).ok());
  // Wrong declared output size must fail cleanly.
  common::Bytes small(in.size() / 2);
  EXPECT_FALSE(zero_rle_decode(std::span<const std::byte>(encoded),
                               std::span<std::byte>(small))
                   .ok());
}

TEST(Finetune, DeterministicAndSharesUnchangedBuffers) {
  Segment base = synthetic_segment(8, 128, 31);
  Segment a = model::finetune_segment(base, 12345, 0.3);
  Segment b = model::finetune_segment(base, 12345, 0.3);
  EXPECT_TRUE(a.content_equals(b));
  // Some slots changed, some kept — and kept slots share the base's buffer
  // identity (the delta codec's zero-cost path).
  size_t kept = 0, changed = 0;
  for (size_t t = 0; t < base.tensors.size(); ++t) {
    if (a.tensors[t].identity() == base.tensors[t].identity()) {
      ++kept;
    } else {
      ++changed;
    }
  }
  EXPECT_GT(kept, 0u);
  EXPECT_GT(changed, 0u);
  // A different seed fine-tunes differently.
  Segment c = model::finetune_segment(base, 54321, 0.3);
  EXPECT_FALSE(c.content_equals(a));
}

}  // namespace
}  // namespace evostore::compress
