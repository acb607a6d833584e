#include "compress/codec.h"

#include "common/fields.h"

namespace evostore::compress {

namespace {

using common::Deserializer;
using common::Result;
using common::Serializer;

class RawCodec final : public Codec {
 public:
  CodecId id() const override { return CodecId::kRaw; }
  std::string_view name() const override { return "raw"; }

  Result<uint64_t> encode(const model::Segment& in, const model::Segment*,
                          Serializer& s) const override {
    common::encode_to(s, in);
    return static_cast<uint64_t>(in.nbytes());
  }

  Result<model::Segment> decode(Deserializer& d, const model::Segment*,
                                uint64_t) const override {
    auto seg = common::decode<model::Segment>(d);
    if (!d.ok()) return d.status();
    return seg;
  }
};

}  // namespace

const Codec& raw_codec() {
  static RawCodec codec;
  return codec;
}

std::string_view codec_name(CodecId id) {
  switch (id) {
    case CodecId::kRaw:
      return "raw";
    case CodecId::kZeroRle:
      return "zero-rle";
    case CodecId::kDeltaVsAncestor:
      return "delta-vs-ancestor";
  }
  return "unknown";
}

void export_codec_stats(const CodecStatsTable& stats,
                        obs::MetricsRegistry& registry) {
  for (size_t i = 0; i < kCodecCount; ++i) {
    const CodecStats& s = stats[i];
    std::string prefix =
        "codec." + std::string(codec_name(static_cast<CodecId>(i))) + ".";
    registry.counter(prefix + "encodes")->add(s.encodes);
    registry.counter(prefix + "decodes")->add(s.decodes);
    registry.counter(prefix + "fallbacks")->add(s.fallbacks);
    registry.counter(prefix + "bytes_in")->add(s.bytes_in);
    registry.counter(prefix + "bytes_out")->add(s.bytes_out);
    registry.gauge(prefix + "ratio")->set(s.ratio());
  }
}

const Codec* codec_for(CodecId id) {
  switch (id) {
    case CodecId::kRaw:
      return &raw_codec();
    case CodecId::kZeroRle:
      return &zero_rle_codec();
    case CodecId::kDeltaVsAncestor:
      return &delta_codec();
  }
  return nullptr;
}

}  // namespace evostore::compress
