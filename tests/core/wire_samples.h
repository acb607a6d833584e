// One populated instance of every wire message (optional tails present), as
// a tuple: the tuple's type is the single list of messages that generic
// wire tests iterate with std::apply.
#pragma once

#include <tuple>

#include "core/wire.h"
#include "tests/core/test_env.h"

namespace evostore::core::testing {

inline auto wire_samples() {
  using namespace wire;
  using common::ModelId;
  using common::SegmentKey;
  using common::Status;

  const ModelId id = ModelId::make(1, 2);
  const model::ArchGraph graph = chain_graph(4, 8);
  OwnerMap owners = OwnerMap::self_owned(id, graph.size());
  owners.set_entry(0, SegmentKey{ModelId::make(1, 1), 0});
  auto envelope = [&](common::VertexId v) {
    auto env = compress::compress_segment(
        model::make_random_segment(graph, v, 7), compress::CodecId::kRaw);
    return std::move(env).value();
  };
  compress::CompressedSegment manifest;
  manifest.kind = compress::EnvelopeKind::kChunked;
  manifest.logical_bytes = 300;
  manifest.physical_bytes = 200;
  manifest.chunks.push_back({{0x0102030405060708ULL, 9}, 120});
  manifest.chunks.push_back({{7, 9}, 80});
  const std::vector<SegmentKey> keys{{id, 1}, {ModelId::make(1, 1), 0}};

  // Every vertex of the graph ships a raw segment.
  PutModelRequest put{id,
                      ModelId::make(1, 1),
                      0.625,
                      graph,
                      OwnerMap::self_owned(id, graph.size()),
                      {},
                      17};
  for (common::VertexId v = 0; v < graph.size(); ++v) {
    put.new_segments.emplace_back(v, envelope(v));
  }
  MetaRecord meta{graph, owners, 0.5, ModelId::make(1, 1), 12.25, 7};
  HintRecord hint{3, "evostore.retire", common::Bytes(5, std::byte{0xab})};
  ReplicateSegment rseg{keys[0], manifest, 3};
  ChunkBodyEntry body{{42, 43}, common::Bytes(4, std::byte{9}), 4096};
  HistogramSummaryEntry hist{"put.seconds", 42, 1.5, 0.001, 0.25,
                             0.01,          0.2, 0.24};
  StatsResponse stats;
  stats.ops.puts = 10;
  stats.dedup.hits = 6;
  stats.live.models = 4;
  stats.codecs.push_back({compress::CodecId::kZeroRle, 16, 1 << 20, 1 << 18});
  stats.histograms.push_back(hist);

  return std::tuple{
      put,
      PutModelResponse{Status::AlreadyExists("dup"), 99},
      GetMetaRequest{id},
      meta,
      GetMetaResponse{true, meta},
      ReadSegmentsRequest{keys},
      ReadSegmentsResponse{Status::Ok(), {envelope(1), envelope(0)}, 4},
      ModifyRefsRequest{keys, false, 0xfeed0001cafe0042ULL, 5, true},
      ModifyRefsResponse{Status::NotFound("missing"), 1, 4096, keys, keys},
      RetireRequest{id, 9},
      RetireResponse{Status::Ok(), owners},
      hint,
      StoreHintRequest{hint},
      StoreHintResponse{Status::Unavailable("drained")},
      rseg,
      ReplicateRequest{true, id, meta, {rseg}, 5, {6, 7}},
      ReplicateResponse{Status::Ok(), true, 7, 2},
      FetchChunksRequest{{{0x1111222233334444ULL, 5}, {0, 1}}},
      body,
      FetchChunksResponse{Status::Ok(), {body}, 4},
      DrainRequest{2, {10, 11, 12, 13}, {1, 1, 0, 1}},
      DrainResponse{Status::Ok(), 12, 99, 3},
      RepairRequest{2, 3, {20, 21, 22}, {1, 1, 1}},
      RepairResponse{Status::Unavailable("peer down"), 4, 40},
      LcpQueryRequest{graph},
      LcpQueryResponse{true, id, 0.9, {{0, 0}, {1, 3}, {2, 2}}},
      StatsRequest{},
      hist,
      CodecUsageEntry{compress::CodecId::kDeltaVsAncestor, 1, 2, 3},
      stats,
  };
}

}  // namespace evostore::core::testing
