#include "compress/zero_rle.h"

#include <cstring>

#include "common/fields.h"
#include "compress/codec.h"
#include "model/tensor.h"

namespace evostore::compress {

namespace {

using common::Bytes;
using common::Deserializer;
using common::Result;
using common::Serializer;
using common::Status;

// Zero runs shorter than this stay literal: a group split costs ~2 varint
// bytes, so encoding a 2-byte zero run never wins.
constexpr size_t kMinZeroRun = 3;

}  // namespace

Bytes zero_rle_encode(std::span<const std::byte> in) {
  Serializer s;
  size_t i = 0;
  while (i < in.size()) {
    // Extend the literal run past zero runs too short to break even.
    size_t j = i;
    while (j < in.size()) {
      if (in[j] != std::byte{0}) {
        ++j;
        continue;
      }
      size_t z = j;
      while (z < in.size() && in[z] == std::byte{0}) ++z;
      if (z - j >= kMinZeroRun || z == in.size()) break;
      j = z;
    }
    size_t zero_end = j;
    while (zero_end < in.size() && in[zero_end] == std::byte{0}) ++zero_end;
    s.u64(j - i);
    s.raw(in.subspan(i, j - i));
    s.u64(zero_end - j);
    i = zero_end;
  }
  return std::move(s).take();
}

Status zero_rle_decode(std::span<const std::byte> in,
                       std::span<std::byte> out) {
  Deserializer d(in);
  size_t pos = 0;
  while (pos < out.size()) {
    if (d.at_end()) return Status::Corruption("zero-rle stream truncated");
    uint64_t lit = d.u64();
    if (!d.ok()) return d.status();
    if (lit > out.size() - pos || lit > d.remaining().size()) {
      return Status::Corruption("zero-rle literal run out of bounds");
    }
    std::memcpy(out.data() + pos, d.remaining().data(), lit);
    d.skip(lit);
    pos += lit;
    uint64_t zeros = d.u64();
    if (!d.ok()) return d.status();
    if (zeros > out.size() - pos) {
      return Status::Corruption("zero-rle zero run out of bounds");
    }
    std::memset(out.data() + pos, 0, zeros);
    pos += zeros;
  }
  return d.finish();
}

namespace {

// Per-tensor record tags.
constexpr uint8_t kTensorRaw = 0;  // Buffer as serde encodes it
constexpr uint8_t kTensorRle = 1;  // zero-RLE of the dense content

class ZeroRleCodec final : public Codec {
 public:
  CodecId id() const override { return CodecId::kZeroRle; }
  std::string_view name() const override { return "zero-rle"; }

  Result<uint64_t> encode(const model::Segment& in, const model::Segment*,
                          Serializer& s) const override {
    uint64_t physical = 0;
    s.u64(in.tensors.size());
    for (const auto& t : in.tensors) {
      common::encode_to(s, t.spec());
      // Synthetic content is a full-entropy stream: never compressible,
      // and materializing it would defeat the O(1) descriptor path.
      if (!t.data().is_synthetic()) {
        Bytes rle = zero_rle_encode(t.data().dense_span());
        if (rle.size() < t.nbytes()) {
          s.u8(kTensorRle);
          s.bytes(rle);
          physical += rle.size();
          continue;
        }
      }
      s.u8(kTensorRaw);
      s.buffer(t.data());
      physical += t.nbytes();
    }
    return physical;
  }

  Result<model::Segment> decode(Deserializer& d, const model::Segment*,
                                uint64_t logical_bytes) const override {
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
        return Status::Corruption("zero-rle tensor exceeds declared size");
      }
      switch (tag) {
        case kTensorRaw: {
          common::Buffer b = d.buffer();
          if (!d.ok()) return d.status();
          if (b.size() != nb) {
            return Status::Corruption("zero-rle raw tensor size mismatch");
          }
          out.tensors.emplace_back(std::move(spec), std::move(b));
          break;
        }
        case kTensorRle: {
          Bytes rle = d.bytes();
          if (!d.ok()) return d.status();
          Bytes content(nb);
          EVO_RETURN_IF_ERROR(zero_rle_decode(rle, content));
          out.tensors.emplace_back(std::move(spec),
                                   common::Buffer::dense(std::move(content)));
          break;
        }
        default:
          return Status::Corruption("unknown zero-rle tensor tag");
      }
      remaining -= nb;
    }
    if (!d.ok()) return d.status();
    return out;
  }
};

}  // namespace

const Codec& zero_rle_codec() {
  static ZeroRleCodec codec;
  return codec;
}

}  // namespace evostore::compress
