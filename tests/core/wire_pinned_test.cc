// Pinned wire and KV-record encodings: one populated instance of every
// wire message, the segment payloads of every codec, and every record the
// provider and repository persist (meta/, seg/, chunk/, tok/, pin/,
// repo/epoch) must encode to exactly the bytes recorded here. A codec
// refactor that changes any of them changes simulated wire sizes (and so
// timings), or strands KV files written by an older build; both must be
// deliberate.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "compress/codec.h"
#include "core/provider.h"
#include "core/wire.h"
#include "net/fabric.h"
#include "net/rpc.h"
#include "sim/simulation.h"
#include "storage/mem_kv.h"
#include "tests/core/test_env.h"

namespace evostore::core::wire {
namespace {

using common::Bytes;
using common::ModelId;
using common::SegmentKey;
using common::Status;
using compress::CompressedSegment;

std::string hex(std::span<const std::byte> b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::byte x : b) {
    auto v = static_cast<unsigned>(x);
    out += kDigits[v >> 4];
    out += kDigits[v & 15];
  }
  return out;
}

Bytes unhex(const std::string& s) {
  Bytes out;
  for (size_t i = 0; i + 1 < s.size(); i += 2) {
    out.push_back(static_cast<std::byte>(std::stoi(s.substr(i, 2), nullptr, 16)));
  }
  return out;
}

template <typename T>
std::string encoded(const T& msg) {
  return hex(common::encode(msg));
}

Bytes small_payload() {
  return Bytes{std::byte{0xde}, std::byte{0xad}, std::byte{0xbe},
               std::byte{0xef}};
}

CompressedSegment inline_env() {
  CompressedSegment env;
  env.codec = compress::CodecId::kZeroRle;
  env.logical_bytes = 300;
  env.physical_bytes = 4;
  env.payload = small_payload();
  return env;
}

CompressedSegment delta_env() {
  CompressedSegment env = inline_env();
  env.codec = compress::CodecId::kDeltaVsAncestor;
  env.has_base = true;
  env.base = SegmentKey{ModelId::make(3, 4), 1};
  return env;
}

CompressedSegment chunked_env() {
  CompressedSegment env;
  env.kind = compress::EnvelopeKind::kChunked;
  env.logical_bytes = 300;
  env.physical_bytes = 200;
  env.chunks.push_back({{0x0102030405060708ULL, 0x1112131415161718ULL}, 120});
  env.chunks.push_back({{7, 9}, 80});
  return env;
}

model::ArchGraph graph() { return testing::chain_graph(2, 4); }

OwnerMap owners() {
  OwnerMap m = OwnerMap::self_owned(ModelId::make(1, 2), 3);
  m.set_entry(0, SegmentKey{ModelId::make(1, 1), 0});
  return m;
}

struct Pin {
  const char* name;
  std::string actual;
  const char* expected;
};

TEST(Wire, PinnedEncodings) {
  PutModelRequest put;
  put.id = ModelId::make(1, 2);
  put.ancestor = ModelId::make(1, 1);
  put.token = 0x0003000000000011ULL;
  put.quality = 0.625;
  put.graph = graph();
  put.owners = owners();
  put.new_segments.emplace_back(1, inline_env());
  put.new_segments.emplace_back(2, delta_env());

  GetMetaResponse meta;
  meta.found = true;
  meta.meta.graph = graph();
  meta.meta.owners = owners();
  meta.meta.quality = 0.5;
  meta.meta.ancestor = ModelId::make(1, 1);
  meta.meta.store_time = 12.25;
  meta.meta.store_seq = 7;

  ReadSegmentsRequest rreq;
  rreq.keys = {{ModelId::make(1, 2), 1}, {ModelId::make(1, 1), 0}};

  ReadSegmentsResponse rresp;
  rresp.status = Status::Ok();
  rresp.segments = {inline_env()};
  rresp.payload_bytes = 4;

  ModifyRefsRequest mreq;
  mreq.keys = {{ModelId::make(3, 3), 5}};
  mreq.increment = false;
  mreq.token = 0xfeed0001cafe0042ULL;
  mreq.pin_epoch = 5;
  mreq.pin_consume = true;

  ModifyRefsResponse mresp;
  mresp.status = Status::NotFound("2 segment(s) missing");
  mresp.missing = 2;
  mresp.freed_bytes = 4096;
  mresp.freed_bases = {{ModelId::make(1, 1), 4}};
  mresp.missing_keys = {{ModelId::make(6, 1), 3}, {ModelId::make(6, 2), 0}};

  RetireResponse retired;
  retired.status = Status::Ok();
  retired.owners = owners();

  HintRecord hint{3, "evostore.retire", small_payload()};

  ReplicateSegment rseg{SegmentKey{ModelId::make(9, 1), 1}, chunked_env(), 3};

  ReplicateRequest repl;
  repl.has_meta = true;
  repl.id = ModelId::make(9, 1);
  repl.meta.graph = graph();
  repl.meta.owners = owners();
  repl.meta.quality = 0.75;
  repl.meta.ancestor = ModelId::make(9, 0);
  repl.meta.store_time = 17.5;
  repl.segments = {rseg};
  repl.source_node = 5;
  repl.peer_nodes = {6, 7};

  ReplicateRequest orphan;
  orphan.id = ModelId::make(9, 2);
  orphan.segments = {rseg};
  orphan.source_node = 4;

  ChunkBodyEntry body{{42, 43}, small_payload(), 4096};
  FetchChunksResponse fresp;
  fresp.status = Status::Ok();
  fresp.chunks = {body};
  fresp.payload_bytes = 4;

  DrainRequest drain{2, {10, 11, 12, 13}, {1, 1, 0, 1}};
  RepairRequest repair{2, 3, {20, 21, 22}, {1, 1, 1}};

  LcpQueryResponse lcp;
  lcp.found = true;
  lcp.ancestor = ModelId::make(1, 2);
  lcp.quality = 0.9;
  lcp.matches = {{0, 0}, {1, 3}, {2, 2}};

  HistogramSummaryEntry hist{"put.seconds", 42,   1.5, 0.001,
                             0.25,          0.01, 0.2, 0.24};

  StatsResponse stats;
  stats.status = Status::Ok();
  stats.ops.puts = 10;
  stats.ops.segment_reads = 20;
  stats.live.models = 4;
  stats.live.physical_bytes = 1 << 18;
  stats.dedup.hits = 6;
  stats.ops.hints_recorded = 5;
  stats.ops.drain_segments_moved = 20;
  stats.codecs.push_back(
      {compress::CodecId::kDeltaVsAncestor, 16, 1 << 20, 1 << 18});
  stats.histograms.push_back(hist);

  const Pin pins[] = {
      {"PutModelRequest", encoded(put),
       "82808080108180808010918080808080c001000000000000e43f030000010364"
       "696d080001000304626961730202696e08036f75740800010003046269617302"
       "02696e08036f7574080001010102000381808080100082808080100182808080"
       "100202010001ac02040004deadbeef020002ac02040184808080300104deadbe"
       "ef"},
      {"PutModelResponse",
       encoded(PutModelResponse{Status::AlreadyExists("dup"), 99}),
       "020364757063"},
      {"GetMetaRequest", encoded(GetMetaRequest{ModelId::make(1, 2)}),
       "8280808010"},
      {"GetMetaResponse", encoded(meta),
       "01030000010364696d080001000304626961730202696e08036f757408000100"
       "0304626961730202696e08036f75740800010101020003818080801000828080"
       "801001828080801002000000000000e03f8180808010000000000080284007"},
      {"GetMetaResponse/not-found", encoded(GetMetaResponse{}),
       "00"},
      {"ReadSegmentsRequest", encoded(rreq),
       "02828080801001818080801000"},
      {"ReadSegmentsResponse", encoded(rresp),
       "0000010001ac02040004deadbeef04"},
      {"ModifyRefsRequest", encoded(mreq),
       "00c280f8d79c80c0f6fe01050101838080803005"},
      {"ModifyRefsResponse", encoded(mresp),
       "011432207365676d656e74287329206d697373696e6702802001818080801004"
       "02818080806003828080806000"},
      {"RetireRequest",
       encoded(RetireRequest{ModelId::make(4, 2), 0x7700000000000009ULL}),
       "8280808040898080808080808077"},
      {"RetireResponse", encoded(retired),
       "000003818080801000828080801001828080801002"},
      {"HintRecord", encoded(hint),
       "030f65766f73746f72652e72657469726504deadbeef"},
      {"StoreHintRequest", encoded(StoreHintRequest{hint}),
       "030f65766f73746f72652e72657469726504deadbeef"},
      {"StoreHintResponse",
       encoded(StoreHintResponse{Status::Unavailable("drained")}),
       "0807647261696e6564"},
      {"ReplicateSegment", encoded(rseg),
       "818080809001010100ac02c8010002888e98a8c0e080810198aed8a8c1e28489"
       "117807095003"},
      {"ReplicateRequest", encoded(repl),
       "01818080809001030000010364696d080001000304626961730202696e08036f"
       "7574080001000304626961730202696e08036f75740800010101020003818080"
       "801000828080801001828080801002000000000000e83f808080809001000000"
       "000080314001818080809001010100ac02c8010002888e98a8c0e080810198ae"
       "d8a8c1e2848911780709500305020607"},
      {"ReplicateRequest/orphan", encoded(orphan),
       "0082808080900101818080809001010100ac02c8010002888e98a8c0e0808101"
       "98aed8a8c1e284891178070950030400"},
      {"ReplicateResponse",
       encoded(ReplicateResponse{Status::Ok(), true, 7, 2}),
       "0000010702"},
      {"FetchChunksRequest",
       encoded(FetchChunksRequest{
           {{0x1111222233334444ULL, 0x5555666677778888ULL}, {0, 1}}}),
       "02c488cd99a3c4c888118891debbe7ccd9aa550001"},
      {"ChunkBodyEntry", encoded(body),
       "2a2b04deadbeef8020"},
      {"FetchChunksResponse", encoded(fresp),
       "0000012a2b04deadbeef802004"},
      {"DrainRequest", encoded(drain),
       "02040a0b0c0d0401010001"},
      {"DrainResponse", encoded(DrainResponse{Status::Ok(), 12, 99, 3}),
       "00000c6303"},
      {"RepairRequest", encoded(repair),
       "02030314151603010101"},
      {"RepairResponse",
       encoded(RepairResponse{Status::Unavailable("peer down"), 4, 40}),
       "08097065657220646f776e0428"},
      {"LcpQueryRequest", encoded(LcpQueryRequest{graph()}),
       "030000010364696d080001000304626961730202696e08036f75740800010003"
       "04626961730202696e08036f757408000101010200"},
      // The LcpQueryRequest bytes, then the failed providers {0, 3} and
      // the recovering providers {2}.
      {"LcpTakeoverRequest",
       encoded(LcpTakeoverRequest{graph(), {0, 3}, {2}}),
       "030000010364696d080001000304626961730202696e08036f75740800010003"
       "04626961730202696e08036f7574080001010102000200030102"},
      {"LcpQueryResponse", encoded(lcp),
       "018280808010cdccccccccccec3f03000001030202"},
      {"LcpQueryResponse/not-found", encoded(LcpQueryResponse{}),
       "00"},
      {"StatsRequest", encoded(StatsRequest{}),
       ""},
      {"HistogramSummaryEntry", encoded(hist),
       "0b7075742e7365636f6e64732a000000000000f83ffca9f1d24d62503f000000"
       "000000d03f7b14ae47e17a843f9a9999999999c93fb81e85eb51b8ce3f"},
      // Every ProviderStats and dedup counter, then the live gauges.
      {"StatsResponse", encoded(stats),
       "00000a0014000000000000000000000000000005000000000000140600000004"
       "0000808010000000010210808040808010010b7075742e7365636f6e64732a00"
       "0000000000f83ffca9f1d24d62503f000000000000d03f7b14ae47e17a843f9a"
       "9999999999c93fb81e85eb51b8ce3f"},
  };
  for (const Pin& p : pins) {
    EXPECT_EQ(p.actual, p.expected) << p.name;
  }
}

// One dense, one synthetic and one zero tensor: every per-tensor record
// kind of the three codecs appears below.
model::Segment pinned_segment() {
  Bytes dense(16);
  for (size_t i = 0; i < dense.size(); ++i) dense[i] = std::byte(i + 1);
  model::Segment seg;
  seg.tensors.emplace_back(model::TensorSpec{{2, 2}, model::DType::kF32},
                           common::Buffer::dense(dense));
  seg.tensors.push_back(
      model::Tensor::random({{3}, model::DType::kF16}, 7));
  seg.tensors.push_back(model::Tensor::zeros({{8}, model::DType::kI8}));
  return seg;
}

// Delta base: slot 0 differs in two bytes (diff record), slot 1 is the same
// stream (same record), slot 2 has another spec (raw record).
model::Segment pinned_base() {
  model::Segment base = pinned_segment();
  Bytes dense(16);
  for (size_t i = 0; i < dense.size(); ++i) dense[i] = std::byte(i + 1);
  dense[3] = std::byte{0x40};
  dense[9] = std::byte{0x00};
  base.tensors[0] = model::Tensor(base.tensors[0].spec(),
                                  common::Buffer::dense(dense));
  base.tensors[2] = model::Tensor::zeros({{4}, model::DType::kI8});
  return base;
}

std::string codec_payload(const compress::Codec& codec,
                          const model::Segment* base) {
  common::Serializer s;
  EXPECT_TRUE(codec.encode(pinned_segment(), base, s).ok()) << codec.name();
  return hex(s.data());
}

TEST(Wire, PinnedSegmentPayloads) {
  model::Segment base = pinned_base();
  const Pin pins[] = {
      {"raw", codec_payload(compress::raw_codec(), nullptr),
       "030002040400100102030405060708090a0b0c0d0e0f10020106010706040110"
       "00080000000000000000"},
      {"zero-rle", codec_payload(compress::zero_rle_codec(), nullptr),
       "03000204040000100102030405060708090a0b0c0d0e0f100201060001070604"
       "011001020008"},
      {"delta-vs-ancestor", codec_payload(compress::delta_codec(), &base),
       "03000204040208000301c405010a060201060004011001000800000000000000"
       "00"},
  };
  for (const Pin& p : pins) {
    EXPECT_EQ(p.actual, p.expected) << p.name;
  }
}

// A single-provider deployment over an in-memory backend, driven by raw
// RPCs so the persisted records depend on nothing but the request.
struct BackedProvider {
  sim::Simulation sim;
  net::Fabric fabric{sim};
  net::RpcSystem rpc{fabric};
  common::NodeId node = fabric.add_node(25e9, 25e9);
  common::NodeId worker = fabric.add_node(25e9, 25e9);
  storage::MemKv kv;
  std::shared_ptr<Membership> membership = std::make_shared<Membership>(1, 1);
  std::unique_ptr<Provider> provider;

  BackedProvider() { boot(); }
  void boot(ProviderConfig config = {}) {
    provider =
        std::make_unique<Provider>(rpc, node, 0, membership, config, &kv);
  }
  common::Result<Bytes> call(const char* method, Bytes request) {
    return sim.run_until_complete(
        rpc.call(worker, node, method, std::move(request)));
  }
};

PutModelRequest pinned_put() {
  PutModelRequest put;
  put.id = ModelId::make(1, 2);
  put.ancestor = ModelId::make(1, 1);
  put.quality = 0.625;
  put.graph = graph();
  put.owners = owners();
  put.new_segments.emplace_back(1, inline_env());
  put.new_segments.emplace_back(2, delta_env());
  return put;
}

// Persisted by the put above: the model's metadata and its two segments.
const std::pair<const char*, const char*> kPinnedRecords[] = {
    {"meta/",
     "030000010364696d080001000304626961730202696e08036f75740800010003"
     "04626961730202696e08036f7574080001010102000381808080100082808080"
     "1001828080801002000000000000e43f818080801083b72f630f62d03e01"},
    {"seg/1",
     "02010001ac02040004deadbeef"},
    {"seg/2",
     "02010002ac02040184808080300104deadbeef"},
};

std::string record_key(const char* tag) {
  ModelId id = ModelId::make(1, 2);
  std::string t = tag;
  if (t == "meta/") return "meta/" + std::to_string(id.value);
  return "seg/" + std::to_string(id.value) + "/" + t.substr(4);
}

TEST(Wire, PinnedKvRecords) {
  BackedProvider env;
  auto resp = env.call(Provider::kPutModel, common::encode(pinned_put()));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(env.kv.size(), std::size(kPinnedRecords));
  for (const auto& [tag, expected] : kPinnedRecords) {
    auto value = env.kv.get(record_key(tag));
    ASSERT_TRUE(value.ok()) << tag;
    EXPECT_EQ(hex(value->dense_span()), expected) << tag;
  }
}

// A put whose 48-byte payload splits into chunks under simulation-scale
// chunking, then a tokened, pinned reference on that segment: the backend
// then holds chunk/, tok/ and pin/ records besides meta/ and seg/.
constexpr uint64_t kPinEpoch = 5;
constexpr uint64_t kRefToken = (kPinEpoch << 48) | 0x21;
const ModelId kChunkedId = ModelId::make(2, 1);

PutModelRequest chunked_put() {
  PutModelRequest put;
  put.id = kChunkedId;
  put.quality = 0.25;
  put.graph = testing::chain_graph(1, 4);
  put.owners = OwnerMap::self_owned(kChunkedId, 2);
  CompressedSegment env;
  env.logical_bytes = 48;
  env.physical_bytes = 48;
  for (int i = 0; i < 48; ++i) env.payload.push_back(std::byte(i * 37 + 11));
  put.new_segments.emplace_back(0, env);
  put.new_segments.emplace_back(1, inline_env());
  return put;
}

ModifyRefsRequest pinned_ref() {
  ModifyRefsRequest req;
  req.keys = {{kChunkedId, 0}};
  req.increment = true;
  req.token = kRefToken;
  req.pin_epoch = kPinEpoch;
  return req;
}

const std::pair<const char*, const char*> kPinnedChunkedRecords[] = {
    {"chunk/1",
     "ecb095ae969490d00a8bdfa095cb9ad094c1010e0e0b30557a9fc4e90e33587d"
     "a2c7ec"},
    {"chunk/2",
     "bef4b9f2c6cacea747f285dbb784dabbce5f0a0a11365b80a5caef14395e"},
    {"chunk/3",
     "eeb7d88ee1fed7bd35f9e9faa3a6d2a3ed78090983a8cdf2173c6186ab"},
    {"chunk/4",
     "8ad3b4879cffcc9e6b97f3e49cebc2f880e8010b0bd0f51a3f6489aed3f81d42"},
    {"chunk/5",
     "b8f499e0dae8eebf62de9adbe0a386e5ce2f0404678cb1d6"},
    {"meta/8589934593",
     "020000010364696d080001000304626961730202696e08036f75740800010100"
     "02818080802000818080802001000000000000d03f00316b81291169d03e01"},
    {"pin/5/8589934593/0",
     "01"},
    {"seg/8589934593/0",
     "0401010030300005ecb095ae969490d00a8bdfa095cb9ad094c1010ebef4b9f2"
     "c6cacea747f285dbb784dabbce5f0aeeb7d88ee1fed7bd35f9e9faa3a6d2a3ed"
     "78098ad3b4879cffcc9e6b97f3e49cebc2f880e8010bb8f499e0dae8eebf62de"
     "9adbe0a386e5ce2f04"},
    {"seg/8589934593/1",
     "02010001ac02040004deadbeef"},
    {"tok/1407374883553313",
     "0106000000000000"},
};

TEST(Wire, PinnedChunkTokenPinRecords) {
  BackedProvider env;
  ProviderConfig config;
  config.chunker = {8, 16, 32};
  env.boot(config);
  ASSERT_TRUE(
      env.call(Provider::kPutModel, common::encode(chunked_put())).ok());
  ASSERT_TRUE(
      env.call(Provider::kModifyRefs, common::encode(pinned_ref())).ok());
  EXPECT_EQ(env.kv.size(), std::size(kPinnedChunkedRecords));
  for (const auto& [key, expected] : kPinnedChunkedRecords) {
    auto value = env.kv.get(key);
    ASSERT_TRUE(value.ok()) << key;
    EXPECT_EQ(hex(value->dense_span()), expected) << key;
  }
}

TEST(Wire, PinnedRepositoryEpoch) {
  // Each repository incarnation over a backend bumps the persisted epoch,
  // whether the backend is fresh or holds an older build's record (255).
  auto incarnate = [](storage::MemKv& kv) {
    sim::Simulation sim;
    net::Fabric fabric{sim};
    net::RpcSystem rpc{fabric};
    std::vector<common::NodeId> nodes{fabric.add_node(25e9, 25e9)};
    EvoStoreRepository repo(rpc, nodes, ProviderConfig{}, {&kv});
    return hex(kv.get("repo/epoch")->dense_span());
  };
  storage::MemKv fresh;
  EXPECT_EQ(incarnate(fresh), "01");
  storage::MemKv older;
  ASSERT_TRUE(
      older.put("repo/epoch", common::Buffer::dense(unhex("ff01"))).ok());
  EXPECT_EQ(incarnate(older), "8002");
}

TEST(Wire, PinnedKvRecordsRestore) {
  // Records exactly as an older build wrote them restore into a provider.
  BackedProvider env;
  for (const auto& [tag, expected] : kPinnedRecords) {
    ASSERT_TRUE(
        env.kv.put(record_key(tag), common::Buffer::dense(unhex(expected)))
            .ok());
  }
  size_t chunk_records = 0;
  for (const auto& [key, expected] : kPinnedChunkedRecords) {
    ASSERT_TRUE(env.kv.put(key, common::Buffer::dense(unhex(expected))).ok());
    if (std::string(key).rfind("chunk/", 0) == 0) ++chunk_records;
  }
  env.boot();
  const ModelId id = ModelId::make(1, 2);
  ASSERT_TRUE(env.provider->has_model(id));
  EXPECT_EQ(*env.provider->owner_map(id), owners());
  for (common::VertexId v : {1u, 2u}) {
    const SegmentKey key{id, v};
    EXPECT_EQ(env.provider->refcount(key), 1);
    ASSERT_NE(env.provider->segment_envelope(key), nullptr);
    EXPECT_EQ(*env.provider->segment_envelope(key),
              v == 1 ? inline_env() : delta_env());
  }
  // chunk/: every manifest chunk is back; pin/: the ledger entry survives;
  // tok/: a retry of the tokened reference replays instead of re-applying.
  ASSERT_TRUE(env.provider->has_model(kChunkedId));
  const SegmentKey chunked{kChunkedId, 0};
  EXPECT_EQ(env.provider->refcount(chunked), 2);
  EXPECT_EQ(env.provider->pinned_count(chunked), 1u);
  const CompressedSegment* env0 = env.provider->segment_envelope(chunked);
  ASSERT_NE(env0, nullptr);
  ASSERT_EQ(env0->kind, compress::EnvelopeKind::kChunked);
  EXPECT_GT(chunk_records, 1u);
  EXPECT_EQ(env.provider->chunk_store().chunk_count(), chunk_records);
  for (const compress::ChunkRef& c : env0->chunks) {
    const auto* chunk = env.provider->chunk_store().find(c.digest);
    ASSERT_NE(chunk, nullptr);
    EXPECT_EQ(chunk->bytes.size(), c.bytes);
  }
  auto replay = env.call(Provider::kModifyRefs, common::encode(pinned_ref()));
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(env.provider->stats().deduped_replays, 1u);
  EXPECT_EQ(env.provider->refcount(chunked), 2);
}

TEST(Wire, PinnedSegRecordVersionsRestoreTheSequence) {
  // A segment's version shares the store sequence, and `seg/` records can
  // outlive their model's `meta/` (retired owner, inherited references):
  // restoring the pinned segment records alone must resume the sequence
  // past their version (1), so the next put is stamped 2.
  BackedProvider env;
  for (const char* tag : {"seg/1", "seg/2"}) {
    for (const auto& [t, expected] : kPinnedRecords) {
      if (std::string(t) != tag) continue;
      ASSERT_TRUE(
          env.kv.put(record_key(t), common::Buffer::dense(unhex(expected)))
              .ok());
    }
  }
  env.boot();
  ASSERT_EQ(env.provider->segment_count(), 2u);
  ASSERT_EQ(env.provider->model_count(), 0u);
  auto resp = env.call(Provider::kPutModel, common::encode(chunked_put()));
  ASSERT_TRUE(resp.ok());
  common::Deserializer d(*resp);
  auto put = common::decode<PutModelResponse>(d);
  ASSERT_TRUE(d.finish().ok());
  ASSERT_TRUE(put.status.ok()) << put.status.to_string();
  EXPECT_EQ(put.store_seq, 2u);
}

}  // namespace
}  // namespace evostore::core::wire
