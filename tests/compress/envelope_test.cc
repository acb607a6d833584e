// CompressedSegment envelope: the versioned kind byte, the kChunked manifest
// representation, and the defined decode errors for input from the future
// (unknown kind / unknown codec) or from an attacker (lying lengths).
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/fields.h"
#include "compress/compressed_segment.h"

namespace evostore::compress {
namespace {

using common::Bytes;
using common::decode;
using common::Deserializer;
using common::encode;
using common::Serializer;

CompressedSegment chunked_envelope() {
  CompressedSegment env;
  env.kind = EnvelopeKind::kChunked;
  env.codec = CodecId::kRaw;
  env.logical_bytes = 300;
  env.physical_bytes = 300;
  env.chunks = {
      ChunkRef{{0x1111222233334444ULL, 0x5555666677778888ULL}, 100},
      ChunkRef{{0x9999aaaabbbbccccULL, 0xddddeeeeffff0000ULL}, 200},
  };
  return env;
}

TEST(Envelope, ChunkedRoundTripPreservesManifest) {
  CompressedSegment env = chunked_envelope();
  env.has_base = true;
  env.base = common::SegmentKey{common::ModelId::make(2, 9), 4};

  Bytes wire = encode(env);
  Deserializer d(wire);
  CompressedSegment back = decode<CompressedSegment>(d);
  ASSERT_TRUE(d.finish().ok()) << d.status().to_string();
  EXPECT_EQ(back, env);
  EXPECT_TRUE(back.payload.empty());
  EXPECT_EQ(back.manifest_bytes(), 300u);
}

TEST(Envelope, KindByteLeadsTheWireFormat) {
  CompressedSegment inline_env;  // default: kInline, empty Raw payload
  EXPECT_EQ(encode(inline_env)[0], std::byte{0});
  EXPECT_EQ(encode(chunked_envelope())[0], std::byte{1});
}

TEST(Envelope, UnknownKindIsADefinedDecodeError) {
  Bytes wire = encode(chunked_envelope());
  // A future envelope kind this reader does not know.
  wire[0] = std::byte{2};
  Deserializer d(wire);
  (void)decode<CompressedSegment>(d);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), common::ErrorCode::kCorruption)
      << d.status().to_string();
  EXPECT_EQ(d.status().message(), "enum value 2 out of range");
}

TEST(Envelope, UnknownCodecIsADefinedDecodeError) {
  Bytes wire = encode(chunked_envelope());
  wire[1] = std::byte{0xee};  // codec id byte follows the kind byte
  Deserializer d(wire);
  (void)decode<CompressedSegment>(d);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), common::ErrorCode::kCorruption)
      << d.status().to_string();
  EXPECT_EQ(d.status().message(), "enum value 238 out of range");
}

TEST(Envelope, TruncatedManifestFailsCleanly) {
  Bytes wire = encode(chunked_envelope());
  for (size_t cut = 1; cut < wire.size(); ++cut) {
    Bytes prefix(wire.begin(), wire.begin() + static_cast<long>(cut));
    Deserializer d(prefix);
    (void)decode<CompressedSegment>(d);
    EXPECT_FALSE(d.finish().ok()) << "cut at " << cut << " decoded cleanly";
  }
}

TEST(Envelope, LyingManifestCountCannotForceAllocation) {
  // Hand-build a chunked envelope whose manifest claims 2^40 entries with
  // almost no bytes behind it: check_count must fail the stream instead of
  // reserving terabytes.
  Serializer s;
  s.u8(1);  // kChunked
  s.u8(0);  // Raw
  s.u64(0);
  s.u64(0);
  s.boolean(false);
  s.u64(uint64_t{1} << 40);  // chunk count
  Bytes wire = std::move(s).take();
  Deserializer d(wire);
  CompressedSegment env = decode<CompressedSegment>(d);
  ASSERT_FALSE(d.ok());
  EXPECT_TRUE(env.chunks.empty());
}

TEST(Envelope, DecompressRejectsChunkedEnvelope) {
  auto seg = decompress_segment(chunked_envelope());
  ASSERT_FALSE(seg.ok());
  EXPECT_EQ(seg.status().code(), common::ErrorCode::kInvalidArgument)
      << seg.status().to_string();
}

}  // namespace
}  // namespace evostore::compress
