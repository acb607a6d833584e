// Wire-protocol round trips: every message type must survive
// encode/decode bit-exactly, including edge cases (empty payloads, error
// statuses, not-found responses).
#include "core/wire.h"

#include <gtest/gtest.h>

#include "tests/core/test_env.h"

namespace evostore::core::wire {
namespace {

using common::Bytes;
using common::Deserializer;
using common::ModelId;
using common::SegmentKey;
using core::testing::chain_graph;

compress::CompressedSegment raw_envelope(const model::Segment& seg) {
  auto env = compress::compress_segment(seg, compress::CodecId::kRaw);
  EXPECT_TRUE(env.ok());
  return std::move(env).value();
}

template <typename T>
T round_trip(const T& in) {
  Bytes bytes = common::encode(in);
  Deserializer d(bytes);
  auto out = common::decode<T>(d);
  EXPECT_TRUE(d.finish().ok()) << d.status().to_string();
  return out;
}

TEST(Wire, StatusHelpers) {
  auto st1 = round_trip(common::Status::NotFound("gone"));
  auto st2 = round_trip(common::Status::Ok());
  EXPECT_EQ(st1.code(), common::ErrorCode::kNotFound);
  EXPECT_EQ(st1.message(), "gone");
  EXPECT_TRUE(st2.ok());
}

TEST(Wire, SegmentKeyHelpers) {
  auto k = round_trip(SegmentKey{ModelId::make(7, 9), 42});
  EXPECT_EQ(k.owner, ModelId::make(7, 9));
  EXPECT_EQ(k.vertex, 42u);
}

// Decode `valid` with byte `at` replaced by `value`.
template <typename T>
common::Status decode_patched(Bytes bytes, size_t at, uint8_t value) {
  bytes.at(at) = std::byte{value};
  Deserializer d(bytes);
  (void)common::decode<T>(d);
  return d.finish();
}

TEST(Wire, EnumsDecodedFromTheWireAreRangeChecked) {
  // Status code byte (offset 0): past kUnimplemented is Corruption.
  EXPECT_TRUE(decode_patched<PutModelResponse>(
                  common::encode(PutModelResponse{}), 0, 11)
                  .ok());
  EXPECT_EQ(decode_patched<PutModelResponse>(
                common::encode(PutModelResponse{}), 0, 12)
                .code(),
            common::ErrorCode::kCorruption);

  // Codec id in the stats codec table.
  StatsResponse stats;
  stats.codecs.push_back({compress::CodecId::kDeltaVsAncestor, 1, 2, 3});
  const Bytes with_codec = common::encode(stats);
  const size_t codec_at = with_codec.size() - 5;  // codec, 3 u64, hist count
  EXPECT_EQ(with_codec[codec_at], std::byte{2});
  EXPECT_TRUE(decode_patched<StatsResponse>(with_codec, codec_at, 2).ok());
  EXPECT_EQ(decode_patched<StatsResponse>(with_codec, codec_at, 3).code(),
            common::ErrorCode::kCorruption);
}

TEST(Wire, PutModelRequestFull) {
  PutModelRequest req;
  req.id = ModelId::make(1, 5);
  req.ancestor = ModelId::make(1, 4);
  req.quality = 0.875;
  req.graph = chain_graph(4, 8);
  req.owners = OwnerMap::self_owned(req.id, req.graph.size());
  req.owners.set_entry(0, {req.ancestor, 0});
  for (common::VertexId v = 1; v < req.graph.size(); ++v) {
    req.new_segments.emplace_back(
        v, raw_envelope(model::make_random_segment(req.graph, v, 3)));
  }
  auto out = round_trip(req);
  EXPECT_EQ(out.id, req.id);
  EXPECT_EQ(out.ancestor, req.ancestor);
  EXPECT_DOUBLE_EQ(out.quality, req.quality);
  EXPECT_EQ(out.graph.graph_hash(), req.graph.graph_hash());
  EXPECT_EQ(out.owners, req.owners);
  ASSERT_EQ(out.new_segments.size(), req.new_segments.size());
  for (size_t i = 0; i < out.new_segments.size(); ++i) {
    EXPECT_EQ(out.new_segments[i].first, req.new_segments[i].first);
    EXPECT_EQ(out.new_segments[i].second, req.new_segments[i].second);
  }
}

TEST(Wire, PutModelRequestEmptySegments) {
  // The Fig.-5 metadata-only population path.
  PutModelRequest req;
  req.id = ModelId::make(2, 1);
  req.graph = chain_graph(3, 8);
  req.owners = OwnerMap::self_owned(req.id, req.graph.size());
  auto out = round_trip(req);
  EXPECT_TRUE(out.new_segments.empty());
  EXPECT_FALSE(out.ancestor.valid());
}

TEST(Wire, PutModelResponse) {
  PutModelResponse resp;
  resp.status = common::Status::AlreadyExists("dup");
  resp.store_seq = 99;
  auto out = round_trip(resp);
  EXPECT_EQ(out.status.code(), common::ErrorCode::kAlreadyExists);
  EXPECT_EQ(out.store_seq, 99u);
}

TEST(Wire, GetMetaFoundAndNotFound) {
  GetMetaResponse found;
  found.found = true;
  found.meta.graph = chain_graph(3, 8);
  found.meta.owners =
      OwnerMap::self_owned(ModelId::make(1, 1), found.meta.graph.size());
  found.meta.quality = 0.5;
  found.meta.ancestor = ModelId::make(1, 7);
  found.meta.store_time = 12.25;
  found.meta.store_seq = 3;
  auto out = round_trip(found);
  EXPECT_TRUE(out.found);
  EXPECT_DOUBLE_EQ(out.meta.store_time, 12.25);
  EXPECT_EQ(out.meta.ancestor, ModelId::make(1, 7));
  EXPECT_EQ(out.meta.owners, found.meta.owners);

  GetMetaResponse missing;  // found == false: nothing else on the wire
  auto out2 = round_trip(missing);
  EXPECT_FALSE(out2.found);
}

TEST(Wire, ReadSegmentsRequestResponse) {
  ReadSegmentsRequest req;
  req.keys.push_back({ModelId::make(1, 1), 0});
  req.keys.push_back({ModelId::make(2, 9), 17});
  auto rout = round_trip(req);
  ASSERT_EQ(rout.keys.size(), 2u);
  EXPECT_EQ(rout.keys[1].vertex, 17u);

  ReadSegmentsResponse resp;
  resp.status = common::Status::Ok();
  auto g = chain_graph(2, 8);
  resp.segments.push_back(raw_envelope(model::make_random_segment(g, 1, 5)));
  resp.payload_bytes = resp.segments[0].physical_bytes;
  auto sout = round_trip(resp);
  ASSERT_EQ(sout.segments.size(), 1u);
  EXPECT_EQ(sout.segments[0], resp.segments[0]);
  EXPECT_EQ(sout.payload_bytes, resp.payload_bytes);
}

TEST(Wire, CompressedSegmentEnvelopeWithBase) {
  // A delta envelope (base key present) survives the wire bit-exactly.
  auto g = chain_graph(3, 8);
  model::Segment base = model::make_random_segment(g, 1, 5);
  model::Segment child = base;
  child.tensors[0] = model::Tensor::random(child.tensors[0].spec(), 777);
  SegmentKey base_key{ModelId::make(9, 9), 1};
  auto env = compress::compress_segment(
      child, compress::CodecId::kDeltaVsAncestor, &base, &base_key);
  ASSERT_TRUE(env.ok());
  ASSERT_TRUE(env->has_base);
  auto out = round_trip(*env);
  EXPECT_EQ(out, *env);
  EXPECT_EQ(out.base, base_key);
}

TEST(Wire, ModifyRefs) {
  ModifyRefsRequest req;
  req.increment = false;
  req.keys.push_back({ModelId::make(3, 3), 5});
  req.token = 0xfeed0001cafe0042ULL;
  req.pin_epoch = 5;
  req.pin_consume = true;
  auto out = round_trip(req);
  EXPECT_FALSE(out.increment);
  ASSERT_EQ(out.keys.size(), 1u);
  EXPECT_EQ(out.token, req.token);
  EXPECT_EQ(out.pin_epoch, 5u);
  EXPECT_TRUE(out.pin_consume);

  // Default-constructed requests carry the zero (no-dedup) token.
  EXPECT_EQ(round_trip(ModifyRefsRequest{}).token, 0u);

  ModifyRefsResponse resp;
  resp.status = common::Status::NotFound("2 segment(s) missing");
  resp.missing = 2;
  resp.freed_bytes = 4096;
  resp.freed_bases.push_back({ModelId::make(1, 1), 4});
  resp.freed_bases.push_back({ModelId::make(2, 2), 0});
  auto rout = round_trip(resp);
  EXPECT_EQ(rout.missing, 2u);
  EXPECT_EQ(rout.freed_bytes, 4096u);
  EXPECT_EQ(rout.freed_bases, resp.freed_bases);
}

TEST(Wire, StatsMessages) {
  auto reqout = round_trip(StatsRequest{});
  (void)reqout;

  StatsResponse resp;
  resp.status = common::Status::Ok();
  resp.ops.puts = 10;
  resp.ops.segment_reads = 20;
  resp.ops.refs_added = 5;
  resp.ops.refs_removed = 3;
  resp.ops.segments_freed = 2;
  resp.ops.pins_reaped = 1;
  resp.ops.lcp_queries = 9;
  resp.dedup.hits = 8;
  resp.dedup.saved_bytes = 4096;
  resp.live.models = 4;
  resp.live.segments = 16;
  resp.live.logical_bytes = 1 << 20;
  resp.live.physical_bytes = 1 << 18;
  resp.codecs.push_back(
      {compress::CodecId::kDeltaVsAncestor, 16, 1 << 20, 1 << 18});
  resp.histograms.push_back(
      {"provider.kv_commit_seconds", 42, 1.5, 0.001, 0.25, 0.01, 0.2, 0.24});
  resp.histograms.push_back(
      {"provider.segment_write_bytes", 7, 7.0 * 4096, 512, 65536, 4096, 60000,
       65000});
  auto out = round_trip(resp);
  EXPECT_EQ(out.ops.puts, 10u);
  EXPECT_EQ(out.ops.segment_reads, 20u);
  EXPECT_EQ(out.ops.refs_added, 5u);
  EXPECT_EQ(out.ops.refs_removed, 3u);
  EXPECT_EQ(out.ops.segments_freed, 2u);
  EXPECT_EQ(out.ops.pins_reaped, 1u);
  EXPECT_EQ(out.ops.lcp_queries, 9u);
  EXPECT_EQ(out.dedup.hits, 8u);
  EXPECT_EQ(out.dedup.saved_bytes, 4096u);
  EXPECT_EQ(out.live.models, 4u);
  EXPECT_EQ(out.live.segments, 16u);
  EXPECT_EQ(out.live.logical_bytes, 1u << 20);
  EXPECT_EQ(out.live.physical_bytes, 1u << 18);
  EXPECT_EQ(out.codecs, resp.codecs);
  EXPECT_EQ(out.histograms, resp.histograms);

  // Default response carries no histograms and still round-trips.
  EXPECT_TRUE(round_trip(StatsResponse{}).histograms.empty());
}

TEST(Wire, MergeStatsHistograms) {
  StatsResponse a;
  a.status = common::Status::Ok();
  a.ops.puts = 3;
  a.histograms.push_back({"rpc.call_seconds", 10, 1.0, 0.05, 0.3, 0.1, 0.2,
                          0.25});
  a.histograms.push_back({"zeta.only_in_a", 1, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0});
  StatsResponse b;
  b.status = common::Status::Ok();
  b.ops.puts = 4;
  b.histograms.push_back({"rpc.call_seconds", 30, 6.0, 0.01, 0.9, 0.2, 0.5,
                          0.8});

  auto total = merge_stats({a, b});
  EXPECT_EQ(total.ops.puts, 7u);
  ASSERT_EQ(total.histograms.size(), 2u);
  // Name-sorted output.
  EXPECT_EQ(total.histograms[0].name, "rpc.call_seconds");
  EXPECT_EQ(total.histograms[1].name, "zeta.only_in_a");
  const auto& m = total.histograms[0];
  // Exact merges.
  EXPECT_EQ(m.count, 40u);
  EXPECT_DOUBLE_EQ(m.sum, 7.0);
  EXPECT_DOUBLE_EQ(m.min, 0.01);
  EXPECT_DOUBLE_EQ(m.max, 0.9);
  // Count-weighted quantile approximation: (10*q_a + 30*q_b) / 40.
  EXPECT_DOUBLE_EQ(m.p50, (10 * 0.1 + 30 * 0.2) / 40.0);
  EXPECT_DOUBLE_EQ(m.p95, (10 * 0.2 + 30 * 0.5) / 40.0);
  EXPECT_DOUBLE_EQ(m.p99, (10 * 0.25 + 30 * 0.8) / 40.0);
  // Entries present on only one side pass through unchanged.
  EXPECT_EQ(total.histograms[1], a.histograms[1]);
}

TEST(Wire, MergeStatsSumsEveryCounter) {
  // Every counter member is named in its struct's fields() (the size check),
  // and the merge sums each one: give each a distinct value through the
  // same field lists the merge walks.
  StatsResponse a;
  StatsResponse b;
  CounterRefs ra;
  CounterRefs rb;
  ra.visit(a.ops);
  ra.visit(a.dedup);
  ra.visit(a.live);
  rb.visit(b.ops);
  rb.visit(b.dedup);
  rb.visit(b.live);
  ASSERT_EQ(ra.refs.size(), sizeof(ProviderStats) / 8 +
                                sizeof(storage::ChunkStoreStats) / 8 +
                                sizeof(LiveStats) / 8);
  for (size_t i = 0; i < ra.refs.size(); ++i) {
    *ra.refs[i] = i + 1;
    *rb.refs[i] = 100 * (i + 1);
  }
  StatsResponse total = merge_stats({a, b});
  CounterRefs rt;
  rt.visit(total.ops);
  rt.visit(total.dedup);
  rt.visit(total.live);
  for (size_t i = 0; i < rt.refs.size(); ++i) {
    EXPECT_EQ(*rt.refs[i], 101 * (i + 1)) << i;
  }
}

TEST(Wire, RetireMessages) {
  auto req = round_trip(RetireRequest{ModelId::make(4, 2), 0x7700000000000009ULL});
  EXPECT_EQ(req.id, ModelId::make(4, 2));
  EXPECT_EQ(req.token, 0x7700000000000009ULL);

  RetireResponse resp;
  resp.status = common::Status::Ok();
  resp.owners = OwnerMap::self_owned(ModelId::make(4, 2), 6);
  auto rout = round_trip(resp);
  EXPECT_EQ(rout.owners, resp.owners);
}

TEST(Wire, ModifyRefsMissingKeys) {
  // Replication-era miss reporting: every missing segment identified by key
  // so the client can vote on unanimity across replicas.
  ModifyRefsResponse resp;
  resp.status = common::Status::NotFound("2 segment(s) missing");
  resp.missing = 2;
  resp.missing_keys.push_back({ModelId::make(6, 1), 3});
  resp.missing_keys.push_back({ModelId::make(6, 2), 0});
  auto out = round_trip(resp);
  EXPECT_EQ(out.missing, 2u);
  EXPECT_EQ(out.missing_keys, resp.missing_keys);
  EXPECT_TRUE(round_trip(ModifyRefsResponse{}).missing_keys.empty());
}

TEST(Wire, HintMessages) {
  HintRecord hint;
  hint.target = 3;
  hint.method = "evostore.put_model";
  hint.payload = common::Bytes{std::byte{1}, std::byte{2}, std::byte{250},
                               std::byte{0}, std::byte{7}};
  auto hout = round_trip(hint);
  EXPECT_EQ(hout, hint);

  StoreHintRequest req;
  req.hint = hint;
  auto rout = round_trip(req);
  EXPECT_EQ(rout.hint, hint);

  StoreHintResponse resp;
  resp.status = common::Status::Unavailable("drained");
  auto sout = round_trip(resp);
  EXPECT_EQ(sout.status.code(), common::ErrorCode::kUnavailable);

  // Empty payload (degenerate but legal) survives too.
  HintRecord empty;
  EXPECT_EQ(round_trip(empty), empty);
}

TEST(Wire, ReplicateMessages) {
  auto g = chain_graph(3, 8);

  ReplicateRequest req;
  req.has_meta = true;
  req.id = ModelId::make(9, 1);
  req.meta.graph = g;
  req.meta.owners = OwnerMap::self_owned(req.id, g.size());
  req.meta.quality = 0.75;
  req.meta.ancestor = ModelId::make(9, 0);
  req.meta.store_time = 17.5;
  req.meta.store_seq = 4;  // stays home: not on the wire
  ReplicateSegment seg;
  seg.key = SegmentKey{req.id, 1};
  seg.segment = raw_envelope(model::make_random_segment(g, 1, 6));
  seg.refs = 3;
  req.segments.push_back(seg);
  req.source_node = 5;
  req.peer_nodes = {6, 7};
  auto out = round_trip(req);
  EXPECT_TRUE(out.has_meta);
  EXPECT_EQ(out.id, req.id);
  EXPECT_EQ(out.meta.graph.graph_hash(), g.graph_hash());
  EXPECT_EQ(out.meta.owners, req.meta.owners);
  EXPECT_DOUBLE_EQ(out.meta.quality, req.meta.quality);
  EXPECT_EQ(out.meta.ancestor, req.meta.ancestor);
  EXPECT_DOUBLE_EQ(out.meta.store_time, req.meta.store_time);
  EXPECT_EQ(out.meta.store_seq, 0u);
  ASSERT_EQ(out.segments.size(), 1u);
  EXPECT_EQ(out.segments[0].key, seg.key);
  EXPECT_EQ(out.segments[0].segment, seg.segment);
  EXPECT_EQ(out.segments[0].refs, 3u);
  EXPECT_EQ(out.source_node, 5u);
  EXPECT_EQ(out.peer_nodes, req.peer_nodes);

  // Orphan push: no metadata block on the wire at all.
  ReplicateRequest orphan;
  orphan.has_meta = false;
  orphan.id = ModelId::make(9, 2);
  orphan.segments.push_back(seg);
  orphan.source_node = 4;
  auto oout = round_trip(orphan);
  EXPECT_FALSE(oout.has_meta);
  EXPECT_EQ(oout.id, orphan.id);
  ASSERT_EQ(oout.segments.size(), 1u);

  ReplicateResponse resp;
  resp.status = common::Status::Ok();
  resp.installed_meta = true;
  resp.installed_segments = 7;
  resp.fetched_chunks = 2;
  auto sout = round_trip(resp);
  EXPECT_TRUE(sout.installed_meta);
  EXPECT_EQ(sout.installed_segments, 7u);
  EXPECT_EQ(sout.fetched_chunks, 2u);
}

TEST(Wire, FetchChunksMessages) {
  FetchChunksRequest req;
  req.digests.push_back({0x1111222233334444ULL, 0x5555666677778888ULL});
  req.digests.push_back({0, 1});
  auto rout = round_trip(req);
  ASSERT_EQ(rout.digests.size(), 2u);
  EXPECT_EQ(rout.digests[0].hi, req.digests[0].hi);
  EXPECT_EQ(rout.digests[0].lo, req.digests[0].lo);
  EXPECT_EQ(rout.digests[1].lo, 1u);

  FetchChunksResponse resp;
  resp.status = common::Status::Ok();
  ChunkBodyEntry e;
  e.digest = {42, 43};
  e.bytes = common::Bytes{std::byte{9}, std::byte{8}, std::byte{7}};
  e.cost = 4096;
  resp.chunks.push_back(e);
  resp.payload_bytes = 3;
  auto sout = round_trip(resp);
  ASSERT_EQ(sout.chunks.size(), 1u);
  EXPECT_EQ(sout.chunks[0].digest.hi, 42u);
  EXPECT_EQ(sout.chunks[0].bytes, e.bytes);
  EXPECT_EQ(sout.chunks[0].cost, 4096u);
  EXPECT_EQ(sout.payload_bytes, 3u);

  // Absent digests are simply skipped; an empty response round-trips.
  EXPECT_TRUE(round_trip(FetchChunksResponse{}).chunks.empty());
}

TEST(Wire, DrainMessages) {
  DrainRequest req;
  req.replication = 2;
  req.provider_nodes = {10, 11, 12, 13};
  req.live = {1, 1, 0, 1};
  auto rout = round_trip(req);
  EXPECT_EQ(rout.replication, 2u);
  EXPECT_EQ(rout.provider_nodes, req.provider_nodes);
  EXPECT_EQ(rout.live, req.live);

  DrainResponse resp;
  resp.status = common::Status::Ok();
  resp.models_moved = 12;
  resp.segments_moved = 99;
  resp.hints_moved = 3;
  auto sout = round_trip(resp);
  EXPECT_EQ(sout.models_moved, 12u);
  EXPECT_EQ(sout.segments_moved, 99u);
  EXPECT_EQ(sout.hints_moved, 3u);
}

TEST(Wire, RepairMessages) {
  RepairRequest req;
  req.target = 2;
  req.replication = 3;
  req.provider_nodes = {20, 21, 22};
  req.live = {1, 1, 1};
  auto rout = round_trip(req);
  EXPECT_EQ(rout.target, 2u);
  EXPECT_EQ(rout.replication, 3u);
  EXPECT_EQ(rout.provider_nodes, req.provider_nodes);
  EXPECT_EQ(rout.live, req.live);

  RepairResponse resp;
  resp.status = common::Status::Unavailable("peer down");
  resp.models_pushed = 4;
  resp.segments_pushed = 40;
  auto sout = round_trip(resp);
  EXPECT_EQ(sout.status.code(), common::ErrorCode::kUnavailable);
  EXPECT_EQ(sout.models_pushed, 4u);
  EXPECT_EQ(sout.segments_pushed, 40u);
}

TEST(Wire, StatsReplicationCounters) {
  StatsResponse resp;
  resp.status = common::Status::Ok();
  resp.ops.hints_recorded = 5;
  resp.ops.hints_replayed = 4;
  resp.ops.hints_discarded = 1;
  resp.ops.replica_chunks_fetched = 9;
  resp.ops.drain_models_moved = 2;
  resp.ops.drain_segments_moved = 20;
  auto out = round_trip(resp);
  EXPECT_EQ(out.ops.hints_recorded, 5u);
  EXPECT_EQ(out.ops.hints_replayed, 4u);
  EXPECT_EQ(out.ops.hints_discarded, 1u);
  EXPECT_EQ(out.ops.replica_chunks_fetched, 9u);
  EXPECT_EQ(out.ops.drain_models_moved, 2u);
  EXPECT_EQ(out.ops.drain_segments_moved, 20u);

  StatsResponse other;
  other.status = common::Status::Ok();
  other.ops.hints_recorded = 1;
  other.ops.replica_chunks_fetched = 1;
  other.ops.drain_segments_moved = 2;
  auto total = merge_stats({resp, other});
  EXPECT_EQ(total.ops.hints_recorded, 6u);
  EXPECT_EQ(total.ops.replica_chunks_fetched, 10u);
  EXPECT_EQ(total.ops.drain_segments_moved, 22u);
}

TEST(Wire, LcpQueryMessages) {
  LcpQueryRequest req;
  req.graph = chain_graph(5, 16);
  auto rout = round_trip(req);
  EXPECT_EQ(rout.graph.graph_hash(), req.graph.graph_hash());

  LcpQueryResponse resp;
  resp.found = true;
  resp.ancestor = ModelId::make(1, 2);
  resp.quality = 0.9;
  resp.matches = {{0, 0}, {1, 3}, {2, 2}};
  auto out = round_trip(resp);
  ASSERT_TRUE(out.found);
  EXPECT_EQ(out.matches, resp.matches);
  EXPECT_EQ(out.lcp_len(), 3u);

  LcpQueryResponse nothing;
  auto out2 = round_trip(nothing);
  EXPECT_FALSE(out2.found);
  EXPECT_EQ(out2.lcp_len(), 0u);
}

}  // namespace
}  // namespace evostore::core::wire
