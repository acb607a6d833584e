#include "compress/compressed_segment.h"

#include <chrono>
#include <utility>

namespace evostore::compress {

namespace {

using common::Result;
using common::Status;

// Host-side codec profiling: CodecStats::{encode,decode}_seconds are
// excluded from every exported artifact, so wall time never reaches
// deterministic output (export_codec_stats drops the timing fields).
double seconds_since(std::chrono::steady_clock::time_point start) {
  // evo-lint: suppress(EVO-DET-001) host-only codec profiling, not exported
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

Result<CompressedSegment> compress_segment(const model::Segment& seg,
                                           CodecId preferred,
                                           const model::Segment* base,
                                           const common::SegmentKey* base_key,
                                           CodecStatsTable* stats) {
  if (codec_for(preferred) == nullptr) {
    return Status::InvalidArgument("unknown codec id");
  }
  CodecId attempted = preferred;
  if (attempted == CodecId::kDeltaVsAncestor &&
      (base == nullptr || base_key == nullptr)) {
    attempted = CodecId::kRaw;  // no ancestor content to delta against
  }
  const Codec& codec = *codec_for(attempted);

  // evo-lint: suppress(EVO-DET-001) host-only codec profiling, not exported
  auto start = std::chrono::steady_clock::now();
  CompressedSegment env;
  env.logical_bytes = seg.nbytes();
  common::Serializer payload;
  auto physical =
      codec.encode(seg, codec.needs_base() ? base : nullptr, payload);
  if (!physical.ok()) return physical.status();

  bool fell_back =
      attempted != CodecId::kRaw &&
      static_cast<double>(*physical) >=
          kCodecFallbackRatio * static_cast<double>(env.logical_bytes);
  if (fell_back) {
    common::Serializer raw;
    physical = raw_codec().encode(seg, nullptr, raw);
    if (!physical.ok()) return physical.status();
    payload = std::move(raw);
  }
  env.codec = fell_back ? CodecId::kRaw : attempted;
  env.physical_bytes = *physical;
  if (env.codec == CodecId::kDeltaVsAncestor) {
    env.has_base = true;
    env.base = *base_key;
  }
  env.payload = std::move(payload).take();

  if (stats != nullptr) {
    auto& cs = (*stats)[codec_index(preferred)];
    ++cs.encodes;
    if (fell_back || attempted != preferred) ++cs.fallbacks;
    cs.bytes_in += env.logical_bytes;
    cs.bytes_out += env.physical_bytes;
    cs.encode_seconds.add(seconds_since(start));
  }
  return env;
}

Result<model::Segment> decompress_segment(const CompressedSegment& env,
                                          const model::Segment* base,
                                          CodecStatsTable* stats) {
  if (env.kind != EnvelopeKind::kInline) {
    // A manifest is only meaningful to the provider-side chunk store that
    // minted it; decoding requires the reassembled inline payload.
    return Status::InvalidArgument("chunked envelope not reassembled");
  }
  const Codec* codec = codec_for(env.codec);
  if (codec == nullptr) {
    return Status::Corruption("unknown codec id in envelope");
  }
  if (codec->needs_base()) {
    if (!env.has_base) {
      return Status::Corruption("delta envelope missing base key");
    }
    if (base == nullptr) {
      return Status::InvalidArgument("delta base segment not resolved");
    }
  }
  // evo-lint: suppress(EVO-DET-001) host-only codec profiling, not exported
  auto start = std::chrono::steady_clock::now();
  common::Deserializer d(env.payload);
  auto seg =
      codec->decode(d, codec->needs_base() ? base : nullptr, env.logical_bytes);
  if (!seg.ok()) return seg;
  EVO_RETURN_IF_ERROR(d.finish());
  if (seg->nbytes() != env.logical_bytes) {
    return Status::Corruption("decoded segment size mismatch");
  }
  if (stats != nullptr) {
    auto& cs = (*stats)[codec_index(env.codec)];
    ++cs.decodes;
    cs.decode_seconds.add(seconds_since(start));
  }
  return seg;
}

}  // namespace evostore::compress
