// Wire messages of the EvoStore client/provider protocol.
//
// Every request/response is a plain struct with canonical serde methods so
// `net::typed_call` can move it across the simulated fabric. Payload tensors
// ride inside `Segment`s whose buffers keep their representation (synthetic
// descriptors stay tiny on the wire; their byte cost is charged through the
// separate bulk/RDMA path, mirroring Mercury's RPC-vs-bulk split).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/serde.h"
#include "common/status.h"
#include "common/types.h"
#include "compress/codec.h"
#include "compress/compressed_segment.h"
#include "core/owner_map.h"
#include "model/arch_graph.h"
#include "model/model.h"

namespace evostore::core::wire {

using common::Deserializer;
using common::ModelId;
using common::SegmentKey;
using common::Serializer;
using common::VertexId;
using compress::CompressedSegment;
using model::ArchGraph;
using model::Segment;

inline void serialize_status(Serializer& s, const common::Status& st) {
  s.u8(static_cast<uint8_t>(st.code()));
  s.str(st.message());
}
inline common::Status deserialize_status(Deserializer& d) {
  auto code = static_cast<common::ErrorCode>(d.u8());
  std::string msg = d.str();
  return common::Status(code, std::move(msg));
}

inline void serialize_key(Serializer& s, const SegmentKey& k) {
  s.u64(k.owner.value);
  s.u32(k.vertex);
}
inline SegmentKey deserialize_key(Deserializer& d) {
  SegmentKey k;
  k.owner.value = d.u64();
  k.vertex = d.u32();
  return k;
}

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

  void serialize(Serializer& s) const {
    s.u64(id.value);
    s.u64(ancestor.value);
    s.u64(token);
    s.f64(quality);
    graph.serialize(s);
    owners.serialize(s);
    s.u64(new_segments.size());
    for (const auto& [v, env] : new_segments) {
      s.u32(v);
      env.serialize(s);
    }
  }
  static PutModelRequest deserialize(Deserializer& d) {
    PutModelRequest r;
    r.id.value = d.u64();
    r.ancestor.value = d.u64();
    r.token = d.u64();
    r.quality = d.f64();
    r.graph = ArchGraph::deserialize(d);
    r.owners = OwnerMap::deserialize(d);
    uint64_t n = d.u64();
    if (!d.check_count(n, 5)) return r;
    r.new_segments.reserve(n);
    for (uint64_t i = 0; i < n && d.ok(); ++i) {
      VertexId v = d.u32();
      r.new_segments.emplace_back(v, CompressedSegment::deserialize(d));
    }
    return r;
  }
};

struct PutModelResponse {
  common::Status status;
  uint64_t store_seq = 0;

  void serialize(Serializer& s) const {
    serialize_status(s, status);
    s.u64(store_seq);
  }
  static PutModelResponse deserialize(Deserializer& d) {
    PutModelResponse r;
    r.status = deserialize_status(d);
    r.store_seq = d.u64();
    return r;
  }
};

// ---- get_meta ------------------------------------------------------------

struct GetMetaRequest {
  ModelId id;
  void serialize(Serializer& s) const { s.u64(id.value); }
  static GetMetaRequest deserialize(Deserializer& d) {
    return GetMetaRequest{ModelId{d.u64()}};
  }
};

struct GetMetaResponse {
  bool found = false;
  ArchGraph graph;
  OwnerMap owners;
  double quality = 0;
  ModelId ancestor;
  double store_time = 0;
  uint64_t store_seq = 0;

  void serialize(Serializer& s) const {
    s.boolean(found);
    if (!found) return;
    graph.serialize(s);
    owners.serialize(s);
    s.f64(quality);
    s.u64(ancestor.value);
    s.f64(store_time);
    s.u64(store_seq);
  }
  static GetMetaResponse deserialize(Deserializer& d) {
    GetMetaResponse r;
    r.found = d.boolean();
    if (!r.found || !d.ok()) return r;
    r.graph = ArchGraph::deserialize(d);
    r.owners = OwnerMap::deserialize(d);
    r.quality = d.f64();
    r.ancestor.value = d.u64();
    r.store_time = d.f64();
    r.store_seq = d.u64();
    return r;
  }
};

// ---- read_segments -------------------------------------------------------

struct ReadSegmentsRequest {
  std::vector<SegmentKey> keys;
  /// Cache-validation handshake (DESIGN.md §14): when non-empty, parallel to
  /// `keys` — cached_versions[i] is the provider version the client already
  /// holds for keys[i] (0 = not cached). A match lets the provider answer
  /// kNotModified instead of shipping payload bytes.
  std::vector<uint64_t> cached_versions;
  /// The reader's fabric node. Meaningful iff `caching`: the provider
  /// records it in its cache directory so later readers can be redirected
  /// to this client's cache.
  common::NodeId reader_node = 0;
  /// Reader fills a local segment cache from this response.
  bool caching = false;
  /// Reader is willing to chase kRedirect hints to a peer cache. Fallback
  /// re-fetches set this false to guarantee termination.
  bool accept_redirect = false;

  void serialize(Serializer& s) const {
    s.u64(keys.size());
    for (const auto& k : keys) serialize_key(s, k);
    s.u64(cached_versions.size());
    for (uint64_t v : cached_versions) s.u64(v);
    s.u32(reader_node);
    s.boolean(caching);
    s.boolean(accept_redirect);
  }
  static ReadSegmentsRequest deserialize(Deserializer& d) {
    ReadSegmentsRequest r;
    uint64_t n = d.u64();
    if (!d.check_count(n, 2)) return r;
    r.keys.reserve(n);
    for (uint64_t i = 0; i < n && d.ok(); ++i) r.keys.push_back(deserialize_key(d));
    uint64_t nv = d.u64();
    if (!d.check_count(nv, 1)) return r;
    r.cached_versions.reserve(nv);
    for (uint64_t i = 0; i < nv && d.ok(); ++i) r.cached_versions.push_back(d.u64());
    r.reader_node = d.u32();
    r.caching = d.boolean();
    r.accept_redirect = d.boolean();
    return r;
  }
};

/// Per-key disposition of a read (parallel to the request's `keys`).
enum class ReadEntryState : uint8_t {
  kFresh = 0,        ///< envelope shipped in `segments`
  kNotModified = 1,  ///< cached version still current; no bytes moved
  kRedirect = 2,     ///< fetch from the peer cache named in `redirect`
};

struct ReadEntryInfo {
  ReadEntryState state = ReadEntryState::kFresh;
  /// Provider's current version of the segment (all states) — the version a
  /// peer read must match exactly.
  uint64_t version = 0;
  /// Peer node last known to cache this segment (kRedirect only).
  common::NodeId redirect = 0;

  friend bool operator==(const ReadEntryInfo&, const ReadEntryInfo&) = default;
};

struct ReadSegmentsResponse {
  common::Status status;
  /// Per-key dispositions in request-key order (empty on error).
  std::vector<ReadEntryInfo> info;
  /// Compressed envelopes for the kFresh entries only, in request-key order
  /// (empty on error). Decoding — including resolving delta base
  /// dependencies — is the client's job.
  std::vector<CompressedSegment> segments;
  /// Physical bytes moved over the bulk path (post-compression); counts the
  /// kFresh envelopes only — NotModified and redirected keys cost nothing
  /// here.
  uint64_t payload_bytes = 0;

  void serialize(Serializer& s) const {
    serialize_status(s, status);
    s.u64(info.size());
    for (const auto& e : info) {
      s.u8(static_cast<uint8_t>(e.state));
      s.u64(e.version);
      s.u32(e.redirect);
    }
    s.u64(segments.size());
    for (const auto& env : segments) env.serialize(s);
    s.u64(payload_bytes);
  }
  static ReadSegmentsResponse deserialize(Deserializer& d) {
    ReadSegmentsResponse r;
    r.status = deserialize_status(d);
    uint64_t ni = d.u64();
    // u8 state + varint version + varint redirect: >= 3 bytes per entry.
    if (!d.check_count(ni, 3)) return r;
    r.info.reserve(ni);
    for (uint64_t i = 0; i < ni && d.ok(); ++i) {
      ReadEntryInfo e;
      e.state = static_cast<ReadEntryState>(d.u8());
      e.version = d.u64();
      e.redirect = d.u32();
      r.info.push_back(e);
    }
    uint64_t n = d.u64();
    if (!d.check_count(n, 5)) return r;
    r.segments.reserve(n);
    for (uint64_t i = 0; i < n && d.ok(); ++i) {
      r.segments.push_back(CompressedSegment::deserialize(d));
    }
    r.payload_bytes = d.u64();
    return r;
  }
};

// ---- peer_read (client-to-client cooperative cache) ----------------------

/// Fetch segments from a peer client's cache after a provider kRedirect
/// hint. Versions are mandatory and must match exactly — a peer serving
/// anything else could resurrect stale bytes the provider already replaced.
struct PeerReadRequest {
  std::vector<SegmentKey> keys;
  std::vector<uint64_t> versions;  // parallel to keys; required match

  void serialize(Serializer& s) const {
    s.u64(keys.size());
    for (const auto& k : keys) serialize_key(s, k);
    for (uint64_t v : versions) s.u64(v);
  }
  static PeerReadRequest deserialize(Deserializer& d) {
    PeerReadRequest r;
    uint64_t n = d.u64();
    // Varint key (>= 2 bytes) + varint version (>= 1) per entry.
    if (!d.check_count(n, 3)) return r;
    r.keys.reserve(n);
    for (uint64_t i = 0; i < n && d.ok(); ++i) r.keys.push_back(deserialize_key(d));
    r.versions.reserve(n);
    for (uint64_t i = 0; i < n && d.ok(); ++i) r.versions.push_back(d.u64());
    return r;
  }
};

struct PeerReadResponse {
  common::Status status;
  /// Parallel to the request keys: 1 when the peer held the exact version.
  std::vector<uint8_t> found;
  /// Envelopes for the found keys, in request-key order.
  std::vector<CompressedSegment> segments;
  /// Physical bytes the requester pulls over the bulk path.
  uint64_t payload_bytes = 0;

  void serialize(Serializer& s) const {
    serialize_status(s, status);
    s.u64(found.size());
    for (uint8_t f : found) s.u8(f);
    s.u64(segments.size());
    for (const auto& env : segments) env.serialize(s);
    s.u64(payload_bytes);
  }
  static PeerReadResponse deserialize(Deserializer& d) {
    PeerReadResponse r;
    r.status = deserialize_status(d);
    uint64_t nf = d.u64();
    if (!d.check_count(nf, 1)) return r;
    r.found.reserve(nf);
    for (uint64_t i = 0; i < nf && d.ok(); ++i) r.found.push_back(d.u8());
    uint64_t n = d.u64();
    if (!d.check_count(n, 5)) return r;
    r.segments.reserve(n);
    for (uint64_t i = 0; i < n && d.ok(); ++i) {
      r.segments.push_back(CompressedSegment::deserialize(d));
    }
    r.payload_bytes = d.u64();
    return r;
  }
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

  void serialize(Serializer& s) const {
    s.boolean(increment);
    s.u64(token);
    s.u64(pin_epoch);
    s.boolean(pin_consume);
    s.u64(keys.size());
    for (const auto& k : keys) serialize_key(s, k);
  }
  static ModifyRefsRequest deserialize(Deserializer& d) {
    ModifyRefsRequest r;
    r.increment = d.boolean();
    r.token = d.u64();
    r.pin_epoch = d.u64();
    r.pin_consume = d.boolean();
    uint64_t n = d.u64();
    if (!d.check_count(n, 2)) return r;
    r.keys.reserve(n);
    for (uint64_t i = 0; i < n && d.ok(); ++i) r.keys.push_back(deserialize_key(d));
    return r;
  }
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

  void serialize(Serializer& s) const {
    serialize_status(s, status);
    s.u32(missing);
    s.u64(freed_bytes);
    s.u64(freed_bases.size());
    for (const auto& k : freed_bases) serialize_key(s, k);
    s.u64(missing_keys.size());
    for (const auto& k : missing_keys) serialize_key(s, k);
  }
  static ModifyRefsResponse deserialize(Deserializer& d) {
    ModifyRefsResponse r;
    r.status = deserialize_status(d);
    r.missing = d.u32();
    r.freed_bytes = d.u64();
    uint64_t n = d.u64();
    if (!d.check_count(n, 2)) return r;
    r.freed_bases.reserve(n);
    for (uint64_t i = 0; i < n && d.ok(); ++i) {
      r.freed_bases.push_back(deserialize_key(d));
    }
    uint64_t nm = d.u64();
    if (!d.check_count(nm, 2)) return r;
    r.missing_keys.reserve(nm);
    for (uint64_t i = 0; i < nm && d.ok(); ++i) {
      r.missing_keys.push_back(deserialize_key(d));
    }
    return r;
  }
};

// ---- retire --------------------------------------------------------------

struct RetireRequest {
  ModelId id;
  /// Idempotency token (see ModifyRefsRequest::token): a retried retire must
  /// return the original owner map instead of NotFound, or the caller could
  /// never run the reference decrements.
  uint64_t token = 0;
  void serialize(Serializer& s) const {
    s.u64(id.value);
    s.u64(token);
  }
  static RetireRequest deserialize(Deserializer& d) {
    RetireRequest r;
    r.id.value = d.u64();
    r.token = d.u64();
    return r;
  }
};

struct RetireResponse {
  common::Status status;
  OwnerMap owners;  // the retired model's owner map (for ref decrements)

  void serialize(Serializer& s) const {
    serialize_status(s, status);
    owners.serialize(s);
  }
  static RetireResponse deserialize(Deserializer& d) {
    RetireResponse r;
    r.status = deserialize_status(d);
    r.owners = OwnerMap::deserialize(d);
    return r;
  }
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

  void serialize(Serializer& s) const {
    s.u32(target);
    s.str(method);
    s.bytes(payload);
  }
  static HintRecord deserialize(Deserializer& d) {
    HintRecord r;
    r.target = d.u32();
    r.method = d.str();
    r.payload = d.bytes();
    return r;
  }
};

struct StoreHintRequest {
  HintRecord hint;
  void serialize(Serializer& s) const { hint.serialize(s); }
  static StoreHintRequest deserialize(Deserializer& d) {
    return StoreHintRequest{HintRecord::deserialize(d)};
  }
};

struct StoreHintResponse {
  common::Status status;
  void serialize(Serializer& s) const { serialize_status(s, status); }
  static StoreHintResponse deserialize(Deserializer& d) {
    return StoreHintResponse{deserialize_status(d)};
  }
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

  void serialize(Serializer& s) const {
    serialize_key(s, key);
    segment.serialize(s);
    s.u32(refs);
  }
  static ReplicateSegment deserialize(Deserializer& d) {
    ReplicateSegment r;
    r.key = deserialize_key(d);
    r.segment = CompressedSegment::deserialize(d);
    r.refs = d.u32();
    return r;
  }
};

struct ReplicateRequest {
  /// Metadata present? Orphan segments (owner meta already retired, payload
  /// alive through inherited references) replicate with has_meta = false.
  bool has_meta = false;
  ModelId id;
  ArchGraph graph;
  OwnerMap owners;
  double quality = 0;
  ModelId ancestor;
  double store_time = 0;
  std::vector<ReplicateSegment> segments;
  /// Where missing chunk bodies live: the pushing provider first, then any
  /// other replica peer (whoever has the content-addressed chunk serves it).
  common::NodeId source_node = 0;
  std::vector<common::NodeId> peer_nodes;

  void serialize(Serializer& s) const {
    s.boolean(has_meta);
    s.u64(id.value);
    if (has_meta) {
      graph.serialize(s);
      owners.serialize(s);
      s.f64(quality);
      s.u64(ancestor.value);
      s.f64(store_time);
    }
    s.u64(segments.size());
    for (const auto& seg : segments) seg.serialize(s);
    s.u32(source_node);
    s.u64(peer_nodes.size());
    for (common::NodeId n : peer_nodes) s.u32(n);
  }
  static ReplicateRequest deserialize(Deserializer& d) {
    ReplicateRequest r;
    r.has_meta = d.boolean();
    r.id.value = d.u64();
    if (r.has_meta && d.ok()) {
      r.graph = ArchGraph::deserialize(d);
      r.owners = OwnerMap::deserialize(d);
      r.quality = d.f64();
      r.ancestor.value = d.u64();
      r.store_time = d.f64();
    }
    uint64_t n = d.u64();
    if (!d.check_count(n, 7)) return r;
    r.segments.reserve(n);
    for (uint64_t i = 0; i < n && d.ok(); ++i) {
      r.segments.push_back(ReplicateSegment::deserialize(d));
    }
    r.source_node = d.u32();
    uint64_t np = d.u64();
    if (!d.check_count(np, 1)) return r;
    r.peer_nodes.reserve(np);
    for (uint64_t i = 0; i < np && d.ok(); ++i) r.peer_nodes.push_back(d.u32());
    return r;
  }
};

struct ReplicateResponse {
  common::Status status;
  bool installed_meta = false;
  uint32_t installed_segments = 0;
  uint32_t fetched_chunks = 0;

  void serialize(Serializer& s) const {
    serialize_status(s, status);
    s.boolean(installed_meta);
    s.u32(installed_segments);
    s.u32(fetched_chunks);
  }
  static ReplicateResponse deserialize(Deserializer& d) {
    ReplicateResponse r;
    r.status = deserialize_status(d);
    r.installed_meta = d.boolean();
    r.installed_segments = d.u32();
    r.fetched_chunks = d.u32();
    return r;
  }
};

// ---- fetch_chunks (content-addressed chunk bodies by digest) -------------

struct FetchChunksRequest {
  std::vector<common::Hash128> digests;

  void serialize(Serializer& s) const {
    s.u64(digests.size());
    for (const auto& h : digests) {
      s.u64(h.hi);
      s.u64(h.lo);
    }
  }
  static FetchChunksRequest deserialize(Deserializer& d) {
    FetchChunksRequest r;
    uint64_t n = d.u64();
    if (!d.check_count(n, 2)) return r;
    r.digests.reserve(n);
    for (uint64_t i = 0; i < n && d.ok(); ++i) {
      common::Hash128 h;
      h.hi = d.u64();
      h.lo = d.u64();
      r.digests.push_back(h);
    }
    return r;
  }
};

/// One chunk body with the modeled storage cost it carries at the source
/// (the telescoping per-chunk share — see DESIGN.md §13); the cost travels
/// so the receiver's byte accounting replicates exactly.
struct ChunkBodyEntry {
  common::Hash128 digest;
  common::Bytes bytes;
  uint64_t cost = 0;

  void serialize(Serializer& s) const {
    s.u64(digest.hi);
    s.u64(digest.lo);
    s.bytes(bytes);
    s.u64(cost);
  }
  static ChunkBodyEntry deserialize(Deserializer& d) {
    ChunkBodyEntry e;
    e.digest.hi = d.u64();
    e.digest.lo = d.u64();
    e.bytes = d.bytes();
    e.cost = d.u64();
    return e;
  }
};

struct FetchChunksResponse {
  common::Status status;
  /// Bodies for the digests this provider holds (request order, absent ones
  /// skipped — the requester retries the remainder against another peer).
  std::vector<ChunkBodyEntry> chunks;
  uint64_t payload_bytes = 0;

  void serialize(Serializer& s) const {
    serialize_status(s, status);
    s.u64(chunks.size());
    for (const auto& c : chunks) c.serialize(s);
    s.u64(payload_bytes);
  }
  static FetchChunksResponse deserialize(Deserializer& d) {
    FetchChunksResponse r;
    r.status = deserialize_status(d);
    uint64_t n = d.u64();
    if (!d.check_count(n, 5)) return r;
    r.chunks.reserve(n);
    for (uint64_t i = 0; i < n && d.ok(); ++i) {
      r.chunks.push_back(ChunkBodyEntry::deserialize(d));
    }
    r.payload_bytes = d.u64();
    return r;
  }
};

// ---- drain (decommission: migrate catalog to successor replicas) ---------

/// Self-contained ring view: the post-drain membership, the replication
/// factor, and every provider's fabric node, so the drained provider can
/// compute successor replica sets and push without any directory service.
struct DrainRequest {
  uint32_t replication = 0;
  std::vector<common::NodeId> provider_nodes;  ///< ProviderId -> NodeId
  std::vector<uint8_t> live;  ///< post-drain membership (self already 0)

  void serialize(Serializer& s) const {
    s.u32(replication);
    s.u64(provider_nodes.size());
    for (common::NodeId n : provider_nodes) s.u32(n);
    s.u64(live.size());
    for (uint8_t b : live) s.u8(b);
  }
  static DrainRequest deserialize(Deserializer& d) {
    DrainRequest r;
    r.replication = d.u32();
    uint64_t n = d.u64();
    if (!d.check_count(n, 1)) return r;
    r.provider_nodes.reserve(n);
    for (uint64_t i = 0; i < n && d.ok(); ++i) r.provider_nodes.push_back(d.u32());
    uint64_t nl = d.u64();
    if (!d.check_count(nl, 1)) return r;
    r.live.reserve(nl);
    for (uint64_t i = 0; i < nl && d.ok(); ++i) r.live.push_back(d.u8());
    return r;
  }
};

struct DrainResponse {
  common::Status status;
  uint64_t models_moved = 0;
  uint64_t segments_moved = 0;
  uint64_t hints_moved = 0;

  void serialize(Serializer& s) const {
    serialize_status(s, status);
    s.u64(models_moved);
    s.u64(segments_moved);
    s.u64(hints_moved);
  }
  static DrainResponse deserialize(Deserializer& d) {
    DrainResponse r;
    r.status = deserialize_status(d);
    r.models_moved = d.u64();
    r.segments_moved = d.u64();
    r.hints_moved = d.u64();
    return r;
  }
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

  void serialize(Serializer& s) const {
    s.u32(target);
    s.u32(replication);
    s.u64(provider_nodes.size());
    for (common::NodeId n : provider_nodes) s.u32(n);
    s.u64(live.size());
    for (uint8_t b : live) s.u8(b);
  }
  static RepairRequest deserialize(Deserializer& d) {
    RepairRequest r;
    r.target = d.u32();
    r.replication = d.u32();
    uint64_t n = d.u64();
    if (!d.check_count(n, 1)) return r;
    r.provider_nodes.reserve(n);
    for (uint64_t i = 0; i < n && d.ok(); ++i) r.provider_nodes.push_back(d.u32());
    uint64_t nl = d.u64();
    if (!d.check_count(nl, 1)) return r;
    r.live.reserve(nl);
    for (uint64_t i = 0; i < nl && d.ok(); ++i) r.live.push_back(d.u8());
    return r;
  }
};

struct RepairResponse {
  common::Status status;
  uint64_t models_pushed = 0;
  uint64_t segments_pushed = 0;

  void serialize(Serializer& s) const {
    serialize_status(s, status);
    s.u64(models_pushed);
    s.u64(segments_pushed);
  }
  static RepairResponse deserialize(Deserializer& d) {
    RepairResponse r;
    r.status = deserialize_status(d);
    r.models_pushed = d.u64();
    r.segments_pushed = d.u64();
    return r;
  }
};

// ---- lcp_query (provider-side collective piece) --------------------------

struct LcpQueryRequest {
  ArchGraph graph;
  void serialize(Serializer& s) const { graph.serialize(s); }
  static LcpQueryRequest deserialize(Deserializer& d) {
    return LcpQueryRequest{ArchGraph::deserialize(d)};
  }
};

struct LcpQueryResponse {
  bool found = false;
  ModelId ancestor;
  double quality = 0;
  std::vector<std::pair<VertexId, VertexId>> matches;  // (G vertex, A vertex)
  /// Client-side only (never serialized): set by the broadcast+reduce when
  /// at least one provider could not be reached within the retry budget —
  /// the reduction covers the responders only (graceful degradation).
  bool partial = false;

  size_t lcp_len() const { return matches.size(); }

  void serialize(Serializer& s) const {
    s.boolean(found);
    if (!found) return;
    s.u64(ancestor.value);
    s.f64(quality);
    s.u64(matches.size());
    for (auto [gv, av] : matches) {
      s.u32(gv);
      s.u32(av);
    }
  }
  static LcpQueryResponse deserialize(Deserializer& d) {
    LcpQueryResponse r;
    r.found = d.boolean();
    if (!r.found || !d.ok()) return r;
    r.ancestor.value = d.u64();
    r.quality = d.f64();
    uint64_t n = d.u64();
    if (!d.check_count(n, 2)) return r;
    r.matches.reserve(n);
    for (uint64_t i = 0; i < n && d.ok(); ++i) {
      VertexId gv = d.u32();
      VertexId av = d.u32();
      r.matches.emplace_back(gv, av);
    }
    return r;
  }
};

// ---- get_stats -----------------------------------------------------------

struct StatsRequest {
  void serialize(Serializer&) const {}
  static StatsRequest deserialize(Deserializer&) { return {}; }
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

  void serialize(Serializer& s) const {
    s.str(name);
    s.u64(count);
    s.f64(sum);
    s.f64(min);
    s.f64(max);
    s.f64(p50);
    s.f64(p95);
    s.f64(p99);
  }
  static HistogramSummaryEntry deserialize(Deserializer& d) {
    HistogramSummaryEntry e;
    e.name = d.str();
    e.count = d.u64();
    e.sum = d.f64();
    e.min = d.f64();
    e.max = d.f64();
    e.p50 = d.f64();
    e.p95 = d.f64();
    e.p99 = d.f64();
    return e;
  }
};

/// Live per-codec stored volume on one provider.
struct CodecUsageEntry {
  compress::CodecId codec = compress::CodecId::kRaw;
  uint64_t segments = 0;
  uint64_t logical_bytes = 0;
  uint64_t physical_bytes = 0;

  friend bool operator==(const CodecUsageEntry&,
                         const CodecUsageEntry&) = default;
};

struct StatsResponse {
  common::Status status;
  // Operation counters (cumulative).
  uint64_t puts = 0;
  uint64_t segment_reads = 0;
  uint64_t refs_added = 0;
  uint64_t refs_removed = 0;
  uint64_t segments_freed = 0;
  // Live stored state.
  uint64_t live_models = 0;
  uint64_t live_segments = 0;
  uint64_t logical_bytes = 0;   // decoded payload the provider serves
  uint64_t physical_bytes = 0;  // at-rest payload: inline + deduped chunks
  // Chunk dedup (DESIGN.md §13). `physical_bytes` above is the deduped
  // at-rest footprint; `pre_dedup_physical_bytes` is what the same live
  // segments would cost with the delta codec alone (every chunk charged at
  // every occurrence). Their ratio is the cross-model dedup factor.
  uint64_t pre_dedup_physical_bytes = 0;
  uint64_t live_chunks = 0;
  uint64_t chunk_physical_bytes = 0;  // the chunk-store share of physical
  uint64_t chunk_hits = 0;            // cumulative dedup hits on ingest
  uint64_t chunk_misses = 0;          // cumulative newly stored chunks
  uint64_t chunks_freed = 0;          // chunks whose last reference died
  uint64_t dedup_saved_bytes = 0;     // cumulative modeled bytes not stored
  // Cooperative cache + pin ledger (DESIGN.md §14).
  uint64_t not_modified_reads = 0;  // validation handshakes answered cheaply
  uint64_t redirects_issued = 0;    // reads pointed at a peer cache
  uint64_t pins_reaped = 0;         // stale-epoch pins released on the ledger
  // Replication fault model (DESIGN.md §15).
  uint64_t handoff_recorded = 0;    // hints parked for a down replica
  uint64_t handoff_replayed = 0;    // hints delivered on target recovery
  uint64_t handoff_discarded = 0;   // hints subsumed by a full repair push
  uint64_t replica_installed_models = 0;    // metas installed via replicate
  uint64_t replica_installed_segments = 0;  // segments installed via replicate
  uint64_t replica_chunks_fetched = 0;      // chunk bodies pulled from peers
  uint64_t drain_models_moved = 0;          // metas migrated by evostore.drain
  uint64_t drain_segments_moved = 0;        // segments migrated by drain
  std::vector<CodecUsageEntry> codecs;
  // Per-provider histogram digests (name-ordered: providers export their
  // registry with std::map iteration, so the wire order is deterministic).
  std::vector<HistogramSummaryEntry> histograms;

  void serialize(Serializer& s) const {
    serialize_status(s, status);
    s.u64(puts);
    s.u64(segment_reads);
    s.u64(refs_added);
    s.u64(refs_removed);
    s.u64(segments_freed);
    s.u64(live_models);
    s.u64(live_segments);
    s.u64(logical_bytes);
    s.u64(physical_bytes);
    s.u64(pre_dedup_physical_bytes);
    s.u64(live_chunks);
    s.u64(chunk_physical_bytes);
    s.u64(chunk_hits);
    s.u64(chunk_misses);
    s.u64(chunks_freed);
    s.u64(dedup_saved_bytes);
    s.u64(not_modified_reads);
    s.u64(redirects_issued);
    s.u64(pins_reaped);
    s.u64(handoff_recorded);
    s.u64(handoff_replayed);
    s.u64(handoff_discarded);
    s.u64(replica_installed_models);
    s.u64(replica_installed_segments);
    s.u64(replica_chunks_fetched);
    s.u64(drain_models_moved);
    s.u64(drain_segments_moved);
    s.u64(codecs.size());
    for (const auto& c : codecs) {
      s.u8(static_cast<uint8_t>(c.codec));
      s.u64(c.segments);
      s.u64(c.logical_bytes);
      s.u64(c.physical_bytes);
    }
    s.u64(histograms.size());
    for (const auto& h : histograms) h.serialize(s);
  }
  static StatsResponse deserialize(Deserializer& d) {
    StatsResponse r;
    r.status = deserialize_status(d);
    r.puts = d.u64();
    r.segment_reads = d.u64();
    r.refs_added = d.u64();
    r.refs_removed = d.u64();
    r.segments_freed = d.u64();
    r.live_models = d.u64();
    r.live_segments = d.u64();
    r.logical_bytes = d.u64();
    r.physical_bytes = d.u64();
    r.pre_dedup_physical_bytes = d.u64();
    r.live_chunks = d.u64();
    r.chunk_physical_bytes = d.u64();
    r.chunk_hits = d.u64();
    r.chunk_misses = d.u64();
    r.chunks_freed = d.u64();
    r.dedup_saved_bytes = d.u64();
    r.not_modified_reads = d.u64();
    r.redirects_issued = d.u64();
    r.pins_reaped = d.u64();
    r.handoff_recorded = d.u64();
    r.handoff_replayed = d.u64();
    r.handoff_discarded = d.u64();
    r.replica_installed_models = d.u64();
    r.replica_installed_segments = d.u64();
    r.replica_chunks_fetched = d.u64();
    r.drain_models_moved = d.u64();
    r.drain_segments_moved = d.u64();
    uint64_t n = d.u64();
    if (!d.check_count(n, 4)) return r;
    r.codecs.reserve(n);
    for (uint64_t i = 0; i < n && d.ok(); ++i) {
      CodecUsageEntry e;
      e.codec = static_cast<compress::CodecId>(d.u8());
      e.segments = d.u64();
      e.logical_bytes = d.u64();
      e.physical_bytes = d.u64();
      r.codecs.push_back(e);
    }
    uint64_t nh = d.u64();
    // >= 1 byte name-length + 7 numeric fields per entry.
    if (!d.check_count(nh, 8)) return r;
    r.histograms.reserve(nh);
    for (uint64_t i = 0; i < nh && d.ok(); ++i) {
      r.histograms.push_back(HistogramSummaryEntry::deserialize(d));
    }
    return r;
  }
};

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
    total.puts += p.puts;
    total.segment_reads += p.segment_reads;
    total.refs_added += p.refs_added;
    total.refs_removed += p.refs_removed;
    total.segments_freed += p.segments_freed;
    total.live_models += p.live_models;
    total.live_segments += p.live_segments;
    total.logical_bytes += p.logical_bytes;
    total.physical_bytes += p.physical_bytes;
    total.pre_dedup_physical_bytes += p.pre_dedup_physical_bytes;
    total.live_chunks += p.live_chunks;
    total.chunk_physical_bytes += p.chunk_physical_bytes;
    total.chunk_hits += p.chunk_hits;
    total.chunk_misses += p.chunk_misses;
    total.chunks_freed += p.chunks_freed;
    total.dedup_saved_bytes += p.dedup_saved_bytes;
    total.not_modified_reads += p.not_modified_reads;
    total.redirects_issued += p.redirects_issued;
    total.pins_reaped += p.pins_reaped;
    total.handoff_recorded += p.handoff_recorded;
    total.handoff_replayed += p.handoff_replayed;
    total.handoff_discarded += p.handoff_discarded;
    total.replica_installed_models += p.replica_installed_models;
    total.replica_installed_segments += p.replica_installed_segments;
    total.replica_chunks_fetched += p.replica_chunks_fetched;
    total.drain_models_moved += p.drain_models_moved;
    total.drain_segments_moved += p.drain_segments_moved;
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

}  // namespace evostore::core::wire
