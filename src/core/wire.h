// Wire messages of the EvoStore client/provider protocol.
//
// Every request/response is a plain struct whose `fields()` lists its
// members once, in wire order; `common::encode` / `common::decode` drive
// that list in both directions (common/fields.h), so `net::typed_call` can
// move any of them across the simulated fabric. Payload tensors ride inside
// `Segment`s whose buffers keep their representation (synthetic descriptors
// stay tiny on the wire; their byte cost is charged through the separate
// bulk/RDMA path, mirroring Mercury's RPC-vs-bulk split).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fields.h"
#include "common/status.h"
#include "common/types.h"
#include "compress/codec.h"
#include "compress/compressed_segment.h"
#include "core/owner_map.h"
#include "model/arch_graph.h"
#include "model/model.h"
#include "storage/chunk_store.h"

namespace evostore::core {

/// Cumulative operation counters of one provider. This is the one
/// declaration of each counter: `StatsResponse` carries the struct whole,
/// and `fields()` drives its encoding and the cluster-wide merge, so a new
/// counter is one member here plus its name in `fields()`.
struct ProviderStats {
  uint64_t puts = 0;
  uint64_t meta_gets = 0;
  uint64_t segment_reads = 0;
  uint64_t lcp_queries = 0;
  uint64_t lcp_models_scanned = 0;
  uint64_t lcp_vertex_visits = 0;
  uint64_t retires = 0;
  uint64_t refs_added = 0;
  uint64_t refs_removed = 0;
  uint64_t segments_freed = 0;
  uint64_t stat_gets = 0;
  /// Tokened requests answered from the dedup cache (retries that would
  /// have double-applied without idempotency).
  uint64_t deduped_replays = 0;
  /// Crash-recovery cycles this provider went through (restart() calls).
  uint64_t restarts = 0;
  /// Cumulative payload volume ingested by puts (logical = decoded tensor
  /// content, physical = post-compression envelope payload).
  uint64_t logical_bytes_ingested = 0;
  uint64_t physical_bytes_ingested = 0;
  // Transfer pin ledger (DESIGN.md §14).
  /// Transfer pins recorded in the durable pin ledger.
  uint64_t pins_recorded = 0;
  /// Stale-epoch pins reaped when a newer client incarnation appeared (the
  /// leaked pins of a client that crashed mid-transfer).
  uint64_t pins_reaped = 0;
  // Replication fault model (DESIGN.md §15).
  /// Hinted handoffs parked here for a down replica.
  uint64_t hints_recorded = 0;
  /// Hints replayed to their target after it recovered.
  uint64_t hints_replayed = 0;
  /// Hints discarded because a full repair push subsumed them.
  uint64_t hints_discarded = 0;
  /// Metadata records installed via evostore.replicate (repair/drain pushes).
  uint64_t replica_installed_models = 0;
  /// Segments installed via evostore.replicate.
  uint64_t replica_installed_segments = 0;
  /// Chunk bodies pulled from peers while installing replicated manifests.
  uint64_t replica_chunks_fetched = 0;
  /// Catalog entries this provider migrated away when drained.
  uint64_t drain_models_moved = 0;
  uint64_t drain_segments_moved = 0;

  template <class V>
  void fields(V& v) {
    v(puts, meta_gets, segment_reads, lcp_queries, lcp_models_scanned,
      lcp_vertex_visits, retires, refs_added, refs_removed, segments_freed,
      stat_gets, deduped_replays, restarts, logical_bytes_ingested,
      physical_bytes_ingested, pins_recorded, pins_reaped, hints_recorded,
      hints_replayed, hints_discarded, replica_installed_models,
      replica_installed_segments, replica_chunks_fetched, drain_models_moved,
      drain_segments_moved);
  }
};

namespace wire {

using common::ModelId;
using common::SegmentKey;
using common::VertexId;
using compress::CompressedSegment;
using model::ArchGraph;

// ---- put_model -----------------------------------------------------------

struct PutModelRequest {
  ModelId id;
  ModelId ancestor;  // invalid() for from-scratch models
  double quality = 0;
  ArchGraph graph;
  OwnerMap owners;
  /// Compressed segment envelopes this model owns, keyed by local vertex id.
  std::vector<std::pair<VertexId, CompressedSegment>> new_segments;
  /// Idempotency token (see ModifyRefsRequest::token). Puts are naturally
  /// idempotent (model ids are globally unique), but the embedded epoch lets
  /// the provider reap stale-epoch transfer pins on ANY mutation — even in a
  /// workload that only ever stores from-scratch models.
  uint64_t token = 0;

  template <class V>
  void fields(V& v) {
    v(id, ancestor, token, quality, graph, owners, new_segments);
  }
};

struct PutModelResponse {
  common::Status status;
  uint64_t store_seq = 0;

  template <class V>
  void fields(V& v) { v(status, store_seq); }
};

// ---- get_meta ------------------------------------------------------------

struct GetMetaRequest {
  ModelId id;

  template <class V>
  void fields(V& v) { v(id); }
};

/// A model's stored metadata: what a provider keeps per model (and persists
/// as its "meta/<id>" KV record) and what get_meta returns.
struct MetaRecord {
  ArchGraph graph;
  OwnerMap owners;
  double quality = 0;
  ModelId ancestor;
  double store_time = 0;
  uint64_t store_seq = 0;

  /// The members that travel between providers; store_seq is local to each.
  template <class V>
  void portable(V& v) {
    v(graph, owners, quality, ancestor, store_time);
  }
  template <class V>
  void fields(V& v) {
    portable(v);
    v(store_seq);
  }
};

struct GetMetaResponse {
  bool found = false;
  MetaRecord meta;  // on the wire iff found

  template <class V>
  void fields(V& v) {
    v(found);
    if (found) v(meta);
  }
};

// ---- read_segments -------------------------------------------------------

struct ReadSegmentsRequest {
  std::vector<SegmentKey> keys;

  template <class V>
  void fields(V& v) { v(keys); }
};

struct ReadSegmentsResponse {
  common::Status status;
  /// Compressed envelopes parallel to the request's `keys` (empty on error).
  /// Decoding — including resolving delta base dependencies — is the
  /// client's job.
  std::vector<CompressedSegment> segments;
  /// Physical bytes moved over the bulk path (post-compression).
  uint64_t payload_bytes = 0;

  template <class V>
  void fields(V& v) { v(status, segments, payload_bytes); }
};

// ---- modify_refs ---------------------------------------------------------

struct ModifyRefsRequest {
  std::vector<SegmentKey> keys;
  bool increment = true;
  /// Idempotency token: non-zero tokens identify one logical request across
  /// retries. A provider that already applied the token replays its cached
  /// response instead of re-applying the refcount deltas (exactly-once
  /// semantics under message loss). 0 disables deduplication.
  uint64_t token = 0;
  /// Transfer-pin bookkeeping (DESIGN.md §14): non-zero marks this request
  /// as pin traffic from the given client incarnation epoch. Increments
  /// record pins in the provider's durable pin ledger; decrements release
  /// them. When the client incarnation restarts, the provider reaps every
  /// ledger entry of older epochs — the fix for pins leaked by a client
  /// crash mid-transfer. 0 = plain reference traffic, no ledger entry.
  uint64_t pin_epoch = 0;
  /// With pin_epoch set: remove the ledger entries WITHOUT touching
  /// refcounts — the pin just became a stored model's permanent reference
  /// (put_model consumed it).
  bool pin_consume = false;

  template <class V>
  void fields(V& v) { v(increment, token, pin_epoch, pin_consume, keys); }
};

struct ModifyRefsResponse {
  common::Status status;
  uint32_t missing = 0;
  uint64_t freed_bytes = 0;
  /// Base keys whose delta-dependency reference was released because a
  /// dependent envelope was freed by this request. The caller must decrement
  /// these in turn (the release can cascade down a delta chain).
  std::vector<SegmentKey> freed_bases;
  /// The request keys this provider did not hold (parallel data for
  /// `missing`). With k-way replication a key is only globally missing when
  /// EVERY replica reports it here — one replica lagging (repairing,
  /// freshly rebuilt) must not fail the whole operation.
  std::vector<SegmentKey> missing_keys;

  template <class V>
  void fields(V& v) {
    v(status, missing, freed_bytes, freed_bases, missing_keys);
  }
};

// ---- retire --------------------------------------------------------------

struct RetireRequest {
  ModelId id;
  /// Idempotency token (see ModifyRefsRequest::token): a retried retire must
  /// return the original owner map instead of NotFound, or the caller could
  /// never run the reference decrements.
  uint64_t token = 0;

  template <class V>
  void fields(V& v) { v(id, token); }
};

struct RetireResponse {
  common::Status status;
  OwnerMap owners;  // the retired model's owner map (for ref decrements)

  template <class V>
  void fields(V& v) { v(status, owners); }
};

// ---- store_hint (hinted handoff, DESIGN.md §15) --------------------------

/// One write a down replica missed, parked durably on a live peer until the
/// target recovers. The payload is the ORIGINAL serialized request (put /
/// modify_refs / retire), token and all — replay simply re-sends it, and the
/// embedded idempotency token makes the replay exactly-once even when the
/// target had in fact applied the write before crashing.
struct HintRecord {
  common::ProviderId target = 0;  ///< replica the write was aimed at
  std::string method;             ///< RPC method to replay
  common::Bytes payload;          ///< serialized original request

  friend bool operator==(const HintRecord&, const HintRecord&) = default;

  template <class V>
  void fields(V& v) { v(target, method, payload); }
};

struct StoreHintRequest {
  HintRecord hint;

  template <class V>
  void fields(V& v) { v(hint); }
};

struct StoreHintResponse {
  common::Status status;

  template <class V>
  void fields(V& v) { v(status); }
};

// ---- replicate (anti-entropy push: drain migration + peer repair) --------

/// One stored segment travelling provider-to-provider. Unlike put_model,
/// kChunked envelopes travel AS MANIFESTS here — the receiver re-references
/// chunks it already holds and pulls only missing bodies via fetch_chunks
/// (cross-provider dedup-aware rebuild). The source's refcount travels too:
/// replication copies GC state, so later symmetric decrements balance.
struct ReplicateSegment {
  SegmentKey key;
  CompressedSegment segment;
  uint32_t refs = 0;

  template <class V>
  void fields(V& v) { v(key, segment, refs); }
};

struct ReplicateRequest {
  /// Metadata present? Orphan segments (owner meta already retired, payload
  /// alive through inherited references) replicate with has_meta = false.
  bool has_meta = false;
  ModelId id;
  /// The source's metadata; its store_seq stays home (the receiver assigns
  /// its own).
  MetaRecord meta;
  std::vector<ReplicateSegment> segments;
  /// Where missing chunk bodies live: the pushing provider first, then any
  /// other replica peer (whoever has the content-addressed chunk serves it).
  common::NodeId source_node = 0;
  std::vector<common::NodeId> peer_nodes;

  template <class V>
  void fields(V& v) {
    v(has_meta, id);
    if (has_meta) meta.portable(v);
    v(segments, source_node, peer_nodes);
  }
};

struct ReplicateResponse {
  common::Status status;
  bool installed_meta = false;
  uint32_t installed_segments = 0;
  uint32_t fetched_chunks = 0;

  template <class V>
  void fields(V& v) {
    v(status, installed_meta, installed_segments, fetched_chunks);
  }
};

// ---- fetch_chunks (content-addressed chunk bodies by digest) -------------

struct FetchChunksRequest {
  std::vector<common::Hash128> digests;

  template <class V>
  void fields(V& v) { v(digests); }
};

/// One chunk body with the modeled storage cost it carries at the source
/// (the telescoping per-chunk share — see DESIGN.md §13); the cost travels
/// so the receiver's byte accounting replicates exactly.
struct ChunkBodyEntry {
  common::Hash128 digest;
  common::Bytes bytes;
  uint64_t cost = 0;

  /// Chunk bodies are never empty, so the length prefix is followed by at
  /// least one byte.
  static constexpr size_t kMinWireBytes = 5;

  template <class V>
  void fields(V& v) { v(digest, bytes, cost); }
};

struct FetchChunksResponse {
  common::Status status;
  /// Bodies for the digests this provider holds (request order, absent ones
  /// skipped — the requester retries the remainder against another peer).
  std::vector<ChunkBodyEntry> chunks;
  uint64_t payload_bytes = 0;

  template <class V>
  void fields(V& v) { v(status, chunks, payload_bytes); }
};

// ---- drain (decommission: migrate catalog to successor replicas) ---------

/// Self-contained ring view: the post-drain membership, the replication
/// factor, and every provider's fabric node, so the drained provider can
/// compute successor replica sets and push without any directory service.
struct DrainRequest {
  uint32_t replication = 0;
  std::vector<common::NodeId> provider_nodes;  ///< ProviderId -> NodeId
  std::vector<uint8_t> live;  ///< post-drain membership (self already 0)

  template <class V>
  void fields(V& v) { v(replication, provider_nodes, live); }
};

struct DrainResponse {
  common::Status status;
  uint64_t models_moved = 0;
  uint64_t segments_moved = 0;
  uint64_t hints_moved = 0;

  template <class V>
  void fields(V& v) { v(status, models_moved, segments_moved, hints_moved); }
};

// ---- repair_peer (anti-entropy rebuild of a lost provider) ---------------

/// Ask a live peer to push every model it is first-live-replica for whose
/// replica set includes `target` (the provider being rebuilt). Carries the
/// full ring view so responsibility is computed identically everywhere —
/// exactly one peer pushes each model.
struct RepairRequest {
  common::ProviderId target = 0;
  uint32_t replication = 0;
  std::vector<common::NodeId> provider_nodes;
  std::vector<uint8_t> live;  ///< full membership, target included

  template <class V>
  void fields(V& v) { v(target, replication, provider_nodes, live); }
};

struct RepairResponse {
  common::Status status;
  uint64_t models_pushed = 0;
  uint64_t segments_pushed = 0;

  template <class V>
  void fields(V& v) { v(status, models_pushed, segments_pushed); }
};

// ---- lcp_query (provider-side collective piece) --------------------------

struct LcpQueryRequest {
  ArchGraph graph;

  template <class V>
  void fields(V& v) { v(graph); }
};

/// Takeover scan (DESIGN.md §17): the providers in `failed` did not answer
/// the sender's plain query, and those in `recovering` were not asked (they
/// may lack models they own). Together they are *out*. The receiver scans
/// the local models whose first replica is out and for which it ranks first
/// among the replicas that are not out; a model whose replicas are all out
/// is scanned by its first replica that is not in `failed`. It answers with
/// an LcpQueryResponse.
struct LcpTakeoverRequest {
  ArchGraph graph;
  std::vector<common::ProviderId> failed;
  std::vector<common::ProviderId> recovering;

  template <class V>
  void fields(V& v) { v(graph, failed, recovering); }
};

struct LcpQueryResponse {
  bool found = false;
  ModelId ancestor;
  double quality = 0;
  std::vector<std::pair<VertexId, VertexId>> matches;  // (G vertex, A vertex)
  /// Client-side only (never serialized): set by the broadcast+reduce when
  /// some stored model may have gone unscanned — a takeover leg failed, or
  /// at least k legs failed (graceful degradation).
  bool partial = false;

  size_t lcp_len() const { return matches.size(); }

  template <class V>
  void fields(V& v) {
    v(found);
    if (found) v(ancestor, quality, matches);
  }
};

// ---- get_stats -----------------------------------------------------------

struct StatsRequest {
  template <class V>
  void fields(V&) {}
};

/// One named histogram digest from a provider's local metrics registry
/// (obs::HistogramSummary + its name). Quantiles are bucket-interpolated
/// provider-side; merging across providers (see merge_stats) keeps exact
/// count/sum/min/max and count-weights the quantiles.
struct HistogramSummaryEntry {
  std::string name;
  uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;

  friend bool operator==(const HistogramSummaryEntry&,
                         const HistogramSummaryEntry&) = default;

  template <class V>
  void fields(V& v) { v(name, count, sum, min, max, p50, p95, p99); }
};

/// Live per-codec stored volume on one provider.
struct CodecUsageEntry {
  compress::CodecId codec = compress::CodecId::kRaw;
  uint64_t segments = 0;
  uint64_t logical_bytes = 0;
  uint64_t physical_bytes = 0;

  friend bool operator==(const CodecUsageEntry&,
                         const CodecUsageEntry&) = default;

  template <class V>
  void fields(V& v) { v(codec, segments, logical_bytes, physical_bytes); }
};

/// Live stored state of one provider (gauges, summed across providers).
struct LiveStats {
  uint64_t models = 0;
  uint64_t segments = 0;
  uint64_t logical_bytes = 0;   // decoded payload the provider serves
  uint64_t physical_bytes = 0;  // at-rest payload: inline + deduped chunks
  /// What the same live segments would cost with the delta codec alone
  /// (every chunk charged at every occurrence). Its ratio to
  /// `physical_bytes` is the cross-model dedup factor (DESIGN.md §13).
  uint64_t pre_dedup_physical_bytes = 0;
  uint64_t chunks = 0;
  uint64_t chunk_physical_bytes = 0;  // the chunk-store share of physical

  template <class V>
  void fields(V& v) {
    v(models, segments, logical_bytes, physical_bytes,
      pre_dedup_physical_bytes, chunks, chunk_physical_bytes);
  }
};

struct StatsResponse {
  common::Status status;
  ProviderStats ops;               // cumulative operation counters
  storage::ChunkStoreStats dedup;  // cumulative chunk-dedup counters
  LiveStats live;
  std::vector<CodecUsageEntry> codecs;
  // Per-provider histogram digests (name-ordered: providers export their
  // registry with std::map iteration, so the wire order is deterministic).
  std::vector<HistogramSummaryEntry> histograms;

  template <class V>
  void fields(V& v) { v(status, ops, dedup, live, codecs, histograms); }
};

/// Field visitor over a counters-only struct: collects the address of each
/// u64 in `fields()` order, so two instances can be summed member-wise.
struct CounterRefs : common::FieldVisitor<CounterRefs> {
  static constexpr bool kDecoding = false;
  std::vector<uint64_t*> refs;
  void leaf(uint64_t& x) { refs.push_back(&x); }
};

template <class Counters>
void add_counters(Counters& total, Counters part) {
  CounterRefs to;
  CounterRefs from;
  to.visit(total);
  from.visit(part);
  for (size_t i = 0; i < to.refs.size(); ++i) *to.refs[i] += *from.refs[i];
}

/// Cluster-wide aggregation of per-provider stats (used by
/// Client::collect_stats). Counters sum exactly; codec usage merges by
/// codec id; histogram digests merge by name with exact count/sum/min/max
/// and count-weighted quantiles (an approximation — the exact quantile of
/// a union is not recoverable from per-provider digests).
inline StatsResponse merge_stats(const std::vector<StatsResponse>& parts) {
  StatsResponse total;
  total.status = common::Status::Ok();
  std::vector<CodecUsageEntry> codecs;
  std::vector<HistogramSummaryEntry> hists;
  for (const StatsResponse& p : parts) {
    add_counters(total.ops, p.ops);
    add_counters(total.dedup, p.dedup);
    add_counters(total.live, p.live);
    for (const CodecUsageEntry& c : p.codecs) {
      auto it = std::find_if(codecs.begin(), codecs.end(),
                             [&](const auto& e) { return e.codec == c.codec; });
      if (it == codecs.end()) {
        codecs.push_back(c);
      } else {
        it->segments += c.segments;
        it->logical_bytes += c.logical_bytes;
        it->physical_bytes += c.physical_bytes;
      }
    }
    for (const HistogramSummaryEntry& h : p.histograms) {
      auto it = std::find_if(hists.begin(), hists.end(),
                             [&](const auto& e) { return e.name == h.name; });
      if (it == hists.end()) {
        hists.push_back(h);
        continue;
      }
      if (h.count == 0) continue;
      if (it->count == 0) {
        *it = h;
        continue;
      }
      double wa = static_cast<double>(it->count);
      double wb = static_cast<double>(h.count);
      it->p50 = (it->p50 * wa + h.p50 * wb) / (wa + wb);
      it->p95 = (it->p95 * wa + h.p95 * wb) / (wa + wb);
      it->p99 = (it->p99 * wa + h.p99 * wb) / (wa + wb);
      it->min = std::min(it->min, h.min);
      it->max = std::max(it->max, h.max);
      it->count += h.count;
      it->sum += h.sum;
    }
  }
  std::sort(codecs.begin(), codecs.end(), [](const auto& a, const auto& b) {
    return static_cast<uint8_t>(a.codec) < static_cast<uint8_t>(b.codec);
  });
  std::sort(hists.begin(), hists.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  total.codecs = std::move(codecs);
  total.histograms = std::move(hists);
  return total;
}

}  // namespace wire
}  // namespace evostore::core
