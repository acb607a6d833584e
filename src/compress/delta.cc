// DeltaVsAncestor: encode a segment as its difference against the same
// vertex's segment in the ancestor model (the TransferContext prefix payload
// on the write path, resolved via the envelope's base key on the read path).
//
// Per-tensor records, comparing slot i against base slot i:
//   kSame    — identities match: zero physical bytes, the decoder aliases the
//              base tensor's buffer. Identity comparison is O(1) for
//              synthetic tensors and a cached hash for dense ones, so this
//              path never materializes multi-GB content.
//   kDiff    — both dense with the same spec: byte-wise difference mod 256,
//              zero-RLE'd (unchanged bytes become zero runs).
//   kRawTensor — everything else (changed synthetic streams do not delta).
#include <cstring>

#include "common/fields.h"
#include "compress/codec.h"
#include "compress/zero_rle.h"
#include "model/tensor.h"

namespace evostore::compress {

namespace {

using common::Bytes;
using common::Deserializer;
using common::Result;
using common::Serializer;
using common::Status;

constexpr uint8_t kSame = 0;
constexpr uint8_t kRawTensor = 1;
constexpr uint8_t kDiff = 2;

class DeltaVsAncestorCodec final : public Codec {
 public:
  CodecId id() const override { return CodecId::kDeltaVsAncestor; }
  std::string_view name() const override { return "delta-vs-ancestor"; }
  bool needs_base() const override { return true; }

  Result<uint64_t> encode(const model::Segment& in, const model::Segment* base,
                          Serializer& s) const override {
    if (base == nullptr) {
      return Status::InvalidArgument("delta codec requires a base segment");
    }
    uint64_t physical = 0;
    s.u64(in.tensors.size());
    for (size_t i = 0; i < in.tensors.size(); ++i) {
      const model::Tensor& t = in.tensors[i];
      const model::Tensor* bt =
          i < base->tensors.size() ? &base->tensors[i] : nullptr;
      common::encode_to(s, t.spec());
      bool spec_match = bt != nullptr && t.spec() == bt->spec();
      if (spec_match && t.identity() == bt->identity()) {
        s.u8(kSame);
        continue;
      }
      if (spec_match && !t.data().is_synthetic() &&
          !bt->data().is_synthetic()) {
        auto cur = t.data().dense_span();
        auto prev = bt->data().dense_span();
        Bytes diff(cur.size());
        for (size_t j = 0; j < cur.size(); ++j) {
          diff[j] = static_cast<std::byte>(static_cast<uint8_t>(cur[j]) -
                                           static_cast<uint8_t>(prev[j]));
        }
        Bytes rle = zero_rle_encode(diff);
        if (rle.size() < t.nbytes()) {
          s.u8(kDiff);
          s.bytes(rle);
          physical += rle.size();
          continue;
        }
      }
      s.u8(kRawTensor);
      s.buffer(t.data());
      physical += t.nbytes();
    }
    return physical;
  }

  Result<model::Segment> decode(Deserializer& d, const model::Segment* base,
                                uint64_t logical_bytes) const override {
    if (base == nullptr) {
      return Status::InvalidArgument("delta codec requires a base segment");
    }
    uint64_t n = d.u64();
    if (!d.check_count(n)) return d.status();
    model::Segment out;
    out.tensors.reserve(n);
    uint64_t remaining = logical_bytes;
    for (uint64_t i = 0; i < n && d.ok(); ++i) {
      auto spec = common::decode<model::TensorSpec>(d);
      uint8_t tag = d.u8();
      if (!d.ok()) return d.status();
      size_t nb = spec.nbytes();
      if (nb > remaining) {
        return Status::Corruption("delta tensor exceeds declared size");
      }
      const model::Tensor* bt =
          i < base->tensors.size() ? &base->tensors[i] : nullptr;
      switch (tag) {
        case kSame: {
          if (bt == nullptr || bt->spec() != spec) {
            return Status::Corruption("delta 'same' record has no base tensor");
          }
          out.tensors.emplace_back(std::move(spec), bt->data());
          break;
        }
        case kRawTensor: {
          common::Buffer b = d.buffer();
          if (!d.ok()) return d.status();
          if (b.size() != nb) {
            return Status::Corruption("delta raw tensor size mismatch");
          }
          out.tensors.emplace_back(std::move(spec), std::move(b));
          break;
        }
        case kDiff: {
          if (bt == nullptr || bt->spec() != spec) {
            return Status::Corruption("delta diff record has no base tensor");
          }
          // encode() only diffs dense against dense; a diff against a
          // synthetic base is a malformed record, never a materialization.
          if (bt->data().is_synthetic()) {
            return Status::Corruption("delta diff record has a synthetic base");
          }
          Bytes rle = d.bytes();
          if (!d.ok()) return d.status();
          Bytes content(nb);
          EVO_RETURN_IF_ERROR(zero_rle_decode(rle, content));
          auto prev = bt->data().dense_span();
          for (size_t j = 0; j < content.size(); ++j) {
            content[j] =
                static_cast<std::byte>(static_cast<uint8_t>(content[j]) +
                                       static_cast<uint8_t>(prev[j]));
          }
          out.tensors.emplace_back(std::move(spec),
                                   common::Buffer::dense(std::move(content)));
          break;
        }
        default:
          return Status::Corruption("unknown delta tensor tag");
      }
      remaining -= nb;
    }
    if (!d.ok()) return d.status();
    return out;
  }
};

}  // namespace

const Codec& delta_codec() {
  static DeltaVsAncestorCodec codec;
  return codec;
}

}  // namespace evostore::compress
