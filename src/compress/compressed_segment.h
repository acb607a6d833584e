// CompressedSegment: the self-describing envelope a segment travels and is
// stored in once a codec has run. Its layout is its `fields()` list. The
// kind comes first and is range-checked on decode, so a reader predating a
// kind fails cleanly instead of misparsing the remainder; a kChunked
// envelope carries a manifest referencing a provider-side content-addressed
// chunk store instead of the payload.
//
// A DeltaVsAncestor envelope depends on its base segment: the provider holds
// one reference on `base` for as long as the envelope lives, and releases it
// (possibly cascading) when the envelope is freed — see handle_modify_refs.
// A kChunked envelope additionally holds one reference on every manifest
// chunk in its provider's chunk store (storage/chunk_store.h); a client can
// never resolve a manifest, so chunked envelopes never travel on the
// client-facing wire — reads reassemble back to kInline first. The one
// exception is provider-to-provider traffic (kReplicate, driven by hint
// replay, drain, and repair): manifests travel as-is there, and the
// receiving replica pulls any chunk bodies it is missing content-addressed
// via kFetchChunks from whichever peer holds them.
#pragma once

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "common/types.h"
#include "compress/codec.h"
#include "model/model.h"

namespace evostore::compress {

/// Envelope storage representation. New kinds append here (and move
/// last_enumerator); decoders reject later values with a Corruption error
/// (old readers fail cleanly on envelopes from the future).
enum class EnvelopeKind : uint8_t {
  kInline = 0,   // payload bytes carried in the envelope
  kChunked = 1,  // payload replaced by a chunk-store manifest
};

constexpr EnvelopeKind last_enumerator(EnvelopeKind) {
  return EnvelopeKind::kChunked;
}

/// One manifest entry of a kChunked envelope: the chunk's content digest and
/// the number of payload bytes it covers (sizes let reassembly pre-validate
/// the manifest against logical expectations before touching the store).
struct ChunkRef {
  common::Hash128 digest;
  uint32_t bytes = 0;

  friend bool operator==(const ChunkRef&, const ChunkRef&) = default;

  template <class V>
  void fields(V& v) { v(digest, bytes); }
};

struct CompressedSegment {
  EnvelopeKind kind = EnvelopeKind::kInline;
  CodecId codec = CodecId::kRaw;
  uint64_t logical_bytes = 0;
  uint64_t physical_bytes = 0;
  bool has_base = false;
  common::SegmentKey base{};         // meaningful iff has_base
  common::Bytes payload;             // kInline only
  std::vector<ChunkRef> chunks;      // kChunked only

  /// Sum of manifest chunk sizes (the payload size a reassembly yields).
  uint64_t manifest_bytes() const {
    uint64_t n = 0;
    for (const ChunkRef& c : chunks) n += c.bytes;
    return n;
  }

  friend bool operator==(const CompressedSegment&,
                         const CompressedSegment&) = default;

  /// Codec/size validity beyond the kind and codec id ranges is checked by
  /// decompress_segment.
  template <class V>
  void fields(V& v) {
    v(kind, codec, logical_bytes, physical_bytes, has_base);
    if (has_base) v(base);
    if (kind == EnvelopeKind::kChunked) {
      v(chunks);
    } else {
      v(payload);
    }
  }
};

/// A non-Raw encoding is kept only when physical < this fraction of logical;
/// otherwise the envelope falls back to Raw (and drops any base dependency).
inline constexpr double kCodecFallbackRatio = 0.95;

/// Encode `seg` with `preferred`. DeltaVsAncestor additionally needs the
/// ancestor's segment content (`base`) and its storage key (`base_key`);
/// without them, or when the ratio is poor, the result is a Raw envelope.
/// Stats (when given) are attributed to the *requested* codec, so ratio and
/// fallback counters describe what the policy achieved. Always kInline —
/// chunking is a provider-side storage decision, not an encoding.
common::Result<CompressedSegment> compress_segment(
    const model::Segment& seg, CodecId preferred,
    const model::Segment* base = nullptr,
    const common::SegmentKey* base_key = nullptr,
    CodecStatsTable* stats = nullptr);

/// Decode an envelope. `base` must be the decoded content of `env.base` when
/// `env.has_base`. Validates the codec id and the declared logical size.
/// Rejects kChunked envelopes (resolve the manifest to kInline first).
common::Result<model::Segment> decompress_segment(
    const CompressedSegment& env, const model::Segment* base = nullptr,
    CodecStatsTable* stats = nullptr);

}  // namespace evostore::compress
