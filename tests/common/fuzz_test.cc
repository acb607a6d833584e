// Robustness fuzzing: malformed wire bytes must never crash, hang, or
// silently decode wrong data — decoders either round-trip exactly or report
// a sticky error. Seeded and deterministic.
#include <gtest/gtest.h>

#include <limits>
#include <tuple>
#include <typeinfo>

#include "common/rng.h"
#include "core/wire.h"
#include "storage/h5file.h"
#include "tests/core/test_env.h"
#include "tests/core/wire_samples.h"

namespace evostore {
namespace {

using common::Buffer;
using common::Bytes;
using common::Deserializer;
using common::Serializer;
using common::Xoshiro256;

Bytes random_bytes(Xoshiro256& rng, size_t max_len) {
  Bytes out(rng.below(max_len + 1));
  for (auto& b : out) b = static_cast<std::byte>(rng.below(256));
  return out;
}

Bytes mutate_bytes(const Bytes& in, Xoshiro256& rng) {
  Bytes out = in;
  switch (rng.below(3)) {
    case 0:  // truncate
      if (!out.empty()) out.resize(rng.below(out.size()));
      break;
    case 1:  // bit flip
      if (!out.empty()) {
        size_t pos = rng.below(out.size());
        out[pos] = out[pos] ^ static_cast<std::byte>(1u << rng.below(8));
      }
      break;
    default:  // splice garbage
      if (!out.empty()) {
        size_t pos = rng.below(out.size());
        out[pos] = static_cast<std::byte>(rng.below(256));
        if (out.size() > 4) out.erase(out.begin() + static_cast<long>(pos % 3));
      }
      break;
  }
  return out;
}

TEST(Fuzz, DeserializerNeverCrashesOnRandomBytes) {
  Xoshiro256 rng(1);
  for (int iter = 0; iter < 3000; ++iter) {
    Bytes data = random_bytes(rng, 64);
    Deserializer d(data);
    // Drive a random read program over the garbage.
    for (int op = 0; op < 8; ++op) {
      switch (rng.below(7)) {
        case 0: (void)d.u8(); break;
        case 1: (void)d.u32(); break;
        case 2: (void)d.u64(); break;
        case 3: (void)d.i64(); break;
        case 4: (void)d.f64(); break;
        case 5: (void)d.str(); break;
        default: (void)d.buffer(); break;
      }
    }
    (void)d.finish();  // must not crash; may be ok or error
  }
  SUCCEED();
}

TEST(Fuzz, SyntheticSliceDescriptorsRejectOrDecodeBounded) {
  // Tag-2 (seed, offset, size) descriptors: a mutated one either decodes to
  // a buffer that stays inside its stream or fails with Corruption; one whose
  // offset + size overflows always fails. Nothing is ever materialized, so
  // multi-TiB claims cost nothing.
  Xoshiro256 rng(7);
  const uint64_t kMax = std::numeric_limits<uint64_t>::max();
  for (int iter = 0; iter < 3000; ++iter) {
    uint64_t offset = 1 + rng.below(kMax - 1);
    Serializer s;
    if (iter % 2 == 0) {
      uint64_t size = kMax - offset + 1 + rng.below(offset);  // overflows
      s.u8(2);
      s.u64(rng.next());
      s.u64(offset);
      s.u64(size);
      Deserializer d(s.data());
      Buffer out = d.buffer();
      ASSERT_EQ(d.status().code(), common::ErrorCode::kCorruption);
      EXPECT_EQ(out.size(), 0u);
      continue;
    }
    uint64_t size = 1 + rng.below(std::min(kMax - offset, uint64_t{1} << 42));
    s.buffer(Buffer::synthetic(offset + size, rng.next()).slice(offset, size));
    ASSERT_EQ(static_cast<uint8_t>(s.data()[0]), 2u);
    Bytes mutated = mutate_bytes(s.data(), rng);
    Deserializer d(mutated);
    Buffer out = d.buffer();
    common::Status st = d.finish();
    if (!st.ok()) {
      ASSERT_EQ(st.code(), common::ErrorCode::kCorruption);
      continue;
    }
    if (out.is_synthetic()) {
      ASSERT_LE(out.size(), kMax - out.stream_offset());
      // Reading the last byte stays in bounds of the stream.
      Bytes last(1);
      out.read(out.size() - 1, last);
    }
  }
}

TEST(Fuzz, ArchGraphDecodeRejectsOrRoundTrips) {
  Xoshiro256 rng(2);
  auto graph = core::testing::chain_graph(6, 16, 2);
  const Bytes valid = common::encode(graph);

  int ok_count = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    Bytes mutated = mutate_bytes(valid, rng);
    Deserializer d(mutated);
    auto g = common::decode<model::ArchGraph>(d);
    if (d.finish().ok()) {
      ++ok_count;
      // Whatever decoded must be internally consistent: edges in range.
      for (common::VertexId v = 0; v < g.size(); ++v) {
        for (auto to : g.out_edges(v)) {
          ASSERT_LT(to, g.size());
        }
      }
    }
  }
  // Some mutations (e.g., hyperparameter bit flips) decode fine — but the
  // framing must catch structural damage most of the time.
  EXPECT_LT(ok_count, 1500);
}

// Writes exactly what FieldWriter writes, recording where each vector's
// count prefix lands and the per-element minimum its reader checks.
class CountRecorder : public common::FieldVisitor<CountRecorder> {
 public:
  static constexpr bool kDecoding = false;
  struct Count {
    size_t offset;
    size_t min_bytes_each;
  };
  explicit CountRecorder(Serializer& s) : s_(&s), writer_(s) {}

  template <class T>
  void leaf(T& x) {
    if constexpr (common::IsVector<T> && !std::is_same_v<T, Bytes>) {
      counts.push_back(
          {s_->size(), common::min_wire_bytes<typename T::value_type>()});
      s_->u64(x.size());
      for (auto& e : x) visit(e);
    } else {
      writer_.leaf(x);
    }
  }

  std::vector<Count> counts;

 private:
  Serializer* s_;
  common::FieldWriter writer_;
};

Bytes varint(uint64_t v) {
  Serializer s;
  s.u64(v);
  return std::move(s).take();
}

template <typename T>
void fuzz_message(T msg, Xoshiro256& rng) {
  Serializer s;
  CountRecorder rec(s);
  rec.visit(msg);
  const Bytes valid = s.data();
  ASSERT_EQ(valid, common::encode(msg)) << typeid(T).name();

  // The untouched message round-trips.
  {
    Deserializer d(valid);
    auto out = common::decode<T>(d);
    ASSERT_TRUE(d.finish().ok()) << typeid(T).name();
    EXPECT_EQ(common::encode(out), valid) << typeid(T).name();
  }
  for (int iter = 0; iter < 2000; ++iter) {
    Bytes mutated = mutate_bytes(valid, rng);
    Deserializer d(mutated);
    (void)common::decode<T>(d);
    (void)d.finish();  // must not crash or hang
  }
  // A count claiming one element more than the remaining input could hold
  // fails before the decoder allocates anything for it.
  for (const auto& c : rec.counts) {
    Deserializer probe(std::span<const std::byte>(valid).subspan(c.offset));
    const size_t old_len = [&] {
      (void)probe.u64();
      return probe.position();
    }();
    const Bytes tail(valid.begin() + static_cast<long>(c.offset + old_len),
                     valid.end());
    Bytes lying(valid.begin(), valid.begin() + static_cast<long>(c.offset));
    Bytes count = varint(tail.size() / c.min_bytes_each + 1);
    lying.insert(lying.end(), count.begin(), count.end());
    lying.insert(lying.end(), tail.begin(), tail.end());
    Deserializer d(lying);
    (void)common::decode<T>(d);
    EXPECT_EQ(d.status().code(), common::ErrorCode::kCorruption)
        << typeid(T).name() << " count at " << c.offset;
    EXPECT_EQ(d.status().message(), "count exceeds remaining input")
        << typeid(T).name() << " count at " << c.offset;
  }
}

TEST(Fuzz, WireMessagesSurviveMutation) {
  Xoshiro256 rng(3);
  size_t messages = 0;
  auto samples = core::testing::wire_samples();
  std::apply(
      [&](auto&... msg) {
        (fuzz_message(msg, rng), ...);
        messages = sizeof...(msg);
      },
      samples);
  EXPECT_GE(messages, 30u);
}

TEST(Fuzz, H5ReaderRejectsMutatedTocs) {
  Xoshiro256 rng(4);
  storage::H5Writer w;
  w.put_attr("quality", "0.5");
  ASSERT_TRUE(
      w.put_dataset("/w/k", model::Tensor::random({{8, 8}, model::DType::kF32}, 1))
          .ok());
  ASSERT_TRUE(
      w.put_dataset("/w/b", model::Tensor::random({{8}, model::DType::kF32}, 2))
          .ok());
  auto extents = std::move(w).finish();
  Bytes toc = extents[0].to_bytes();

  for (int iter = 0; iter < 1500; ++iter) {
    auto mutated = extents;
    mutated[0] = Buffer::dense(mutate_bytes(toc, rng));
    auto r = storage::H5Reader::open(std::move(mutated));
    if (r.ok()) {
      // Accepted images must still be self-consistent.
      for (const auto& path : r->dataset_paths()) {
        auto t = r->dataset(path);
        ASSERT_TRUE(t.ok());
      }
    }
  }
  SUCCEED();
}

TEST(Fuzz, OwnerMapDeserializeBounded) {
  // Length-prefix attacks: a huge claimed count on a tiny payload must fail
  // without attempting a huge allocation... within reason (reserve() on the
  // claimed count is bounded by the varint check failing first on read).
  Serializer s;
  s.u64(1ull << 20);  // claims a million entries, provides none
  Deserializer d(s.data());
  auto m = common::decode<core::OwnerMap>(d);
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(m.size(), 0u);
}

TEST(Fuzz, SegmentDeserializeGarbageTensorCount) {
  Serializer s;
  s.u64(3);  // three tensors claimed, zero provided
  Deserializer d(s.data());
  auto seg = common::decode<model::Segment>(d);
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(seg.tensors.empty() || seg.nbytes() == 0);
}

Bytes spec_bytes(uint8_t dtype, const std::vector<int64_t>& dims) {
  Serializer s;
  s.u8(dtype);
  s.u64(dims.size());
  for (int64_t d : dims) s.i64(d);
  return std::move(s).take();
}

TEST(Fuzz, TensorSpecRejectsGiantDimsAndBadEnums) {
  // Negative dims, shapes whose byte size overflows, and enum bytes past
  // the last enumerator fail the stream. Every accepted spec's nbytes() is
  // computed here, so the UBSan build checks it cannot overflow.
  const int64_t giant = int64_t{1} << 40;
  for (const Bytes& bad :
       {spec_bytes(0, {giant, giant}), spec_bytes(0, {giant, giant, 0}),
        spec_bytes(6, {int64_t{1} << 61}), spec_bytes(0, {-1, 4}),
        spec_bytes(200, {4}), spec_bytes(7, {4})}) {
    Deserializer d(bad);
    auto spec = common::decode<model::TensorSpec>(d);
    EXPECT_EQ(d.status().code(), common::ErrorCode::kCorruption);
    EXPECT_TRUE(spec.size_in_range());
  }
  // The codecs read the same specs: a giant dim is an error status.
  Serializer raw;
  raw.u64(1);
  raw.raw(spec_bytes(0, {giant, giant}));
  raw.buffer(Buffer::synthetic(16, 1));
  for (const compress::Codec* codec :
       {&compress::raw_codec(), &compress::zero_rle_codec()}) {
    Deserializer d(raw.data());
    EXPECT_FALSE(codec->decode(d, nullptr, 1 << 20).ok()) << codec->name();
  }

  Xoshiro256 rng(6);
  const int64_t magnitudes[] = {0, 1, 7, int64_t{1} << 20, int64_t{1} << 31,
                                int64_t{1} << 40, int64_t{1} << 62,
                                std::numeric_limits<int64_t>::max(), -1,
                                std::numeric_limits<int64_t>::min()};
  int accepted = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<int64_t> dims(rng.below(4));
    for (auto& dim : dims) dim = magnitudes[rng.below(std::size(magnitudes))];
    Bytes bytes = spec_bytes(static_cast<uint8_t>(rng.below(10)), dims);
    Deserializer d(bytes);
    auto spec = common::decode<model::TensorSpec>(d);
    if (!d.finish().ok()) continue;
    ++accepted;
    ASSERT_TRUE(spec.size_in_range());
    ASSERT_LE(spec.nbytes(),
              static_cast<size_t>(std::numeric_limits<int64_t>::max()));
  }
  EXPECT_GT(accepted, 0);
}

TEST(Fuzz, ArchGraphRejectsOutOfRangeLayerKind) {
  Bytes bytes = common::encode(core::testing::chain_graph(2, 4));
  // The vertex count is one byte; the first def's kind follows.
  bytes[1] = std::byte{99};
  Deserializer d(bytes);
  (void)common::decode<model::ArchGraph>(d);
  EXPECT_EQ(d.status().code(), common::ErrorCode::kCorruption);
  EXPECT_EQ(d.status().message(), "enum value 99 out of range");
}

TEST(Fuzz, CompressedSegmentSurvivesMutation) {
  // Mutated envelopes must deserialize without crashing, and the full decode
  // path (envelope -> codec -> tensors) must either round-trip or return a
  // Status — never crash, hang, or over-allocate.
  Xoshiro256 rng(5);
  auto graph = core::testing::chain_graph(3, 8);
  model::Segment base = model::make_random_segment(graph, 1, 11);
  model::Segment child = base;
  // A dense tensor so the delta codec exercises its RLE-diff payload too.
  {
    Bytes bytes(base.tensors[0].data().size());
    base.tensors[0].data().read(0, bytes);
    base.tensors[0] = model::Tensor(
        base.tensors[0].spec(),
        Buffer::copy(std::span<const std::byte>(bytes)));
    bytes[0] ^= std::byte{0x11};
    child.tensors[0] = model::Tensor(
        base.tensors[0].spec(),
        Buffer::copy(std::span<const std::byte>(bytes)));
  }
  common::SegmentKey base_key{common::ModelId::make(1, 1), 1};

  for (compress::CodecId codec :
       {compress::CodecId::kRaw, compress::CodecId::kZeroRle,
        compress::CodecId::kDeltaVsAncestor}) {
    auto env = compress::compress_segment(child, codec, &base, &base_key);
    ASSERT_TRUE(env.ok());
    const Bytes valid = common::encode(*env);

    // Untouched envelope round-trips through serde + decode.
    {
      Deserializer d(valid);
      auto out = common::decode<compress::CompressedSegment>(d);
      ASSERT_TRUE(d.finish().ok());
      auto seg = compress::decompress_segment(out, &base);
      ASSERT_TRUE(seg.ok()) << seg.status().to_string();
      EXPECT_TRUE(seg->content_equals(child));
    }
    for (int iter = 0; iter < 2000; ++iter) {
      Bytes mutated = mutate_bytes(valid, rng);
      Deserializer d(mutated);
      auto out = common::decode<compress::CompressedSegment>(d);
      if (!d.finish().ok()) continue;
      // Decodable framing: the codec layer must still verify content.
      auto seg = compress::decompress_segment(out, &base);
      if (seg.ok()) {
        EXPECT_EQ(seg->nbytes(), out.logical_bytes);
      }
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace evostore
