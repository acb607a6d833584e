#include "core/provider.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "common/log.h"
#include "core/lcp.h"
#include "core/placement.h"

namespace evostore::core {

using common::Bytes;
using common::decode;
using common::encode;
using common::ModelId;
using common::Status;

Provider::Provider(net::RpcSystem& rpc, common::NodeId node,
                   common::ProviderId id,
                   std::shared_ptr<Membership> membership,
                   ProviderConfig config, storage::KvStore* backend)
    : sim_(&rpc.simulation()),
      rpc_(&rpc),
      flows_(&rpc.fabric().flows()),
      node_(node),
      id_(id),
      config_(config),
      backend_(backend),
      membership_(std::move(membership)),
      placed_version_(membership_->version()),
      chunk_store_(backend) {
  if (config_.pool_bandwidth > 0) {
    pool_port_ = flows_->add_port(config_.pool_bandwidth,
                                  "pool" + std::to_string(id));
    pool_enabled_ = true;
  }
  hist_put_seconds_ = metrics_.histogram("put.seconds");
  hist_put_bytes_ = metrics_.histogram("put.physical_bytes");
  hist_read_seconds_ = metrics_.histogram("read.seconds");
  hist_read_bytes_ = metrics_.histogram("read.physical_bytes");
  hist_lcp_seconds_ = metrics_.histogram("lcp.seconds");
  hist_refs_seconds_ = metrics_.histogram("refs.seconds");
  hist_chunk_bytes_ = metrics_.histogram("chunk.payload_bytes");
  counter_chunk_hits_ = metrics_.counter("chunk.hits");
  counter_chunk_misses_ = metrics_.counter("chunk.misses");
  if (obs::MetricsRegistry* shared = rpc.metrics()) {
    shared_put_seconds_ = shared->histogram("provider.put_seconds");
    shared_put_bytes_ = shared->histogram("provider.put_physical_bytes");
    shared_read_seconds_ = shared->histogram("provider.read_seconds");
    shared_read_bytes_ = shared->histogram("provider.read_physical_bytes");
    shared_lcp_seconds_ = shared->histogram("provider.lcp_seconds");
    shared_refs_seconds_ = shared->histogram("provider.refs_seconds");
    shared_chunk_bytes_ = shared->histogram("provider.chunk_payload_bytes");
  }
  if (backend_ != nullptr) restore_from_backend();
  register_handlers(rpc);
}

// ---- persistence --------------------------------------------------------

std::string Provider::meta_key(common::ModelId id) {
  return "meta/" + std::to_string(id.value);
}

std::string Provider::segment_key(const common::SegmentKey& key) {
  return "seg/" + std::to_string(key.owner.value) + "/" +
         std::to_string(key.vertex);
}

std::string Provider::token_key(uint64_t token) {
  return "tok/" + std::to_string(token);
}

std::string Provider::tomb_key(common::ModelId id) {
  return "tomb/" + std::to_string(id.value);
}

void Provider::add_tombstone(common::ModelId id) {
  if (!tombstones_.insert(id).second || backend_ == nullptr) return;
  auto st = backend_->put(tomb_key(id), common::Buffer::dense({}));
  if (!st.ok()) EVO_WARN << "add_tombstone: " << st.to_string();
}

void Provider::persist_meta(common::ModelId id, const MetaRecord& meta) {
  if (backend_ == nullptr) return;
  auto st = backend_->put(meta_key(id), common::Buffer::dense(encode(meta)));
  if (!st.ok()) EVO_WARN << "persist_meta: " << st.to_string();
}

void Provider::erase_meta(common::ModelId id) {
  if (backend_ == nullptr) return;
  (void)backend_->erase(meta_key(id));
}

void Provider::persist_segment(const common::SegmentKey& key,
                               const SegEntry& entry) {
  if (backend_ == nullptr) return;
  auto st =
      backend_->put(segment_key(key), common::Buffer::dense(encode(entry)));
  if (!st.ok()) EVO_WARN << "persist_segment: " << st.to_string();
}

std::string Provider::pin_record_key(uint64_t epoch,
                                     const common::SegmentKey& key) {
  return "pin/" + std::to_string(epoch) + "/" +
         std::to_string(key.owner.value) + "/" + std::to_string(key.vertex);
}

void Provider::persist_pin(uint64_t epoch, const common::SegmentKey& key,
                           uint32_t count) {
  if (backend_ == nullptr) return;
  if (count == 0) {
    (void)backend_->erase(pin_record_key(epoch, key));
    return;
  }
  auto st = backend_->put(pin_record_key(epoch, key),
                          common::Buffer::dense(encode(uint64_t{count})));
  if (!st.ok()) EVO_WARN << "persist_pin: " << st.to_string();
}

void Provider::pin_add(uint64_t epoch, const common::SegmentKey& key) {
  uint32_t& count = pins_[epoch][key];
  ++count;
  ++stats_.pins_recorded;
  persist_pin(epoch, key, count);
}

void Provider::pin_remove(uint64_t epoch, const common::SegmentKey& key) {
  auto eit = pins_.find(epoch);
  if (eit == pins_.end()) return;
  auto kit = eit->second.find(key);
  if (kit == eit->second.end()) return;
  uint32_t remaining = --kit->second;
  if (remaining == 0) eit->second.erase(kit);
  persist_pin(epoch, key, remaining);
  if (eit->second.empty()) pins_.erase(eit);
}

void Provider::account_stored(const compress::CompressedSegment& env,
                              int dir) {
  size_t idx = compress::codec_index(env.codec);
  // The per-codec table and physical_bytes_ charge the envelope's full
  // codec-output size whatever its storage kind — the pre-dedup view that
  // isolates what compression achieved. Only inline_physical_bytes_ splits
  // by kind: chunked envelopes' at-rest cost lives in the chunk store.
  bool is_inline = env.kind == compress::EnvelopeKind::kInline;
  if (dir > 0) {
    payload_bytes_ += env.logical_bytes;
    physical_bytes_ += env.physical_bytes;
    if (is_inline) inline_physical_bytes_ += env.physical_bytes;
    ++codec_usage_[idx].segments;
    codec_usage_[idx].logical_bytes += env.logical_bytes;
    codec_usage_[idx].physical_bytes += env.physical_bytes;
  } else {
    payload_bytes_ -= env.logical_bytes;
    physical_bytes_ -= env.physical_bytes;
    if (is_inline) inline_physical_bytes_ -= env.physical_bytes;
    --codec_usage_[idx].segments;
    codec_usage_[idx].logical_bytes -= env.logical_bytes;
    codec_usage_[idx].physical_bytes -= env.physical_bytes;
  }
}

// ---- chunk dedup (DESIGN.md §13) ----------------------------------------

void Provider::maybe_chunk(compress::CompressedSegment& env) {
  if (!config_.chunking || !config_.chunker.valid()) return;
  if (env.kind != compress::EnvelopeKind::kInline) return;
  if (env.payload.size() < config_.chunker.min_bytes) return;
  std::span<const std::byte> payload(env.payload);
  std::vector<size_t> ends =
      compress::chunk_boundaries(payload, config_.chunker);
  const uint64_t physical = env.physical_bytes;
  const uint64_t total = payload.size();
  env.chunks.reserve(ends.size());
  size_t start = 0;
  uint64_t dedup_hits = 0;
  for (size_t end : ends) {
    std::span<const std::byte> piece = payload.subspan(start, end - start);
    common::Hash128 digest = common::hash128_bytes(piece);
    // Proportional share of the envelope's modeled physical cost; the
    // telescoping floors make per-envelope chunk costs sum to exactly
    // env.physical_bytes, so dedup-free accounting is unchanged.
    uint64_t cost = physical * end / total - physical * start / total;
    bool miss = chunk_store_.add_ref(digest, piece, cost);
    (miss ? counter_chunk_misses_ : counter_chunk_hits_)->add(1);
    if (!miss) ++dedup_hits;
    record(hist_chunk_bytes_, shared_chunk_bytes_,
           static_cast<double>(piece.size()));
    env.chunks.push_back(
        compress::ChunkRef{digest, static_cast<uint32_t>(piece.size())});
    start = end;
  }
  if (dedup_hits > 0) {
    if (obs::EventLog* ev = events()) {
      // Aggregated per envelope, not per chunk, to bound event volume.
      ev->record(sim_->now(), "dedup.hit", node_,
                 {{"chunks", obs::EventLog::u64(dedup_hits)},
                  {"of", obs::EventLog::u64(ends.size())}});
    }
  }
  env.kind = compress::EnvelopeKind::kChunked;
  env.payload.clear();
  env.payload.shrink_to_fit();
}

common::Result<compress::CompressedSegment> Provider::reassemble(
    const compress::CompressedSegment& env) const {
  if (env.kind == compress::EnvelopeKind::kInline) return env;
  compress::CompressedSegment out = env;
  out.kind = compress::EnvelopeKind::kInline;
  out.chunks.clear();
  out.payload.reserve(env.manifest_bytes());
  for (const compress::ChunkRef& c : env.chunks) {
    const storage::ChunkStore::Chunk* chunk = chunk_store_.find(c.digest);
    if (chunk == nullptr || chunk->bytes.size() != c.bytes) {
      return Status::Corruption("chunk " + c.digest.hex() +
                                " missing or resized");
    }
    out.payload.insert(out.payload.end(), chunk->bytes.begin(),
                       chunk->bytes.end());
  }
  return out;
}

void Provider::release_chunks(const compress::CompressedSegment& env) {
  for (const compress::ChunkRef& c : env.chunks) {
    chunk_store_.release(c.digest);
  }
}

void Provider::erase_segment_record(const common::SegmentKey& key) {
  if (backend_ == nullptr) return;
  (void)backend_->erase(segment_key(key));
}

bool Provider::release_ref(const common::SegmentKey& key,
                           uint64_t* freed_bytes,
                           std::vector<common::SegmentKey>* freed_bases) {
  auto it = segments_.find(key);
  if (it == segments_.end()) return false;
  ++stats_.refs_removed;
  if (--it->second.refs <= 0) {
    const auto& env = it->second.segment;
    *freed_bytes += env.logical_bytes;
    // A freed delta envelope releases the reference it held on its base;
    // the caller decrements that key next (cascading down the chain).
    if (env.has_base) freed_bases->push_back(env.base);
    // A freed chunked envelope releases its manifest's chunk references;
    // each chunk dies only when no other segment's manifest names it.
    release_chunks(env);
    account_stored(env, -1);
    segments_.erase(it);
    erase_segment_record(key);
    ++stats_.segments_freed;
  } else {
    persist_segment(key, it->second);
  }
  return true;
}

// ---- pin ledger (DESIGN.md §14) -----------------------------------------

void Provider::observe_epoch(uint64_t token) {
  if (token == 0) return;
  uint64_t epoch = token >> 48;
  if (epoch <= last_pin_epoch_) return;
  last_pin_epoch_ = epoch;
  reap_stale_pins(epoch);
}

void Provider::reap_stale_pins(uint64_t current_epoch) {
  uint64_t reaped = 0;
  for (auto it = pins_.begin();
       it != pins_.end() && it->first < current_epoch;) {
    for (const auto& [key, count] : it->second) {
      // Release the leaked pins, cascading through locally stored delta
      // bases. A base living on another provider can't be reached from
      // here; its own pin record (if the transfer pinned it) is reaped by
      // that provider when it observes the epoch bump.
      std::vector<common::SegmentKey> frontier(count, key);
      while (!frontier.empty()) {
        common::SegmentKey k = frontier.back();
        frontier.pop_back();
        uint64_t bytes = 0;
        std::vector<common::SegmentKey> bases;
        if (!release_ref(k, &bytes, &bases)) {
          EVO_WARN << "pin reap: segment " << k.to_string()
                   << " not stored locally; skipped";
          continue;
        }
        for (const auto& b : bases) frontier.push_back(b);
      }
      reaped += count;
      persist_pin(it->first, key, 0);
    }
    it = pins_.erase(it);
  }
  if (reaped > 0) {
    stats_.pins_reaped += reaped;
    EVO_INFO << "provider " << id_ << " reaped " << reaped
             << " stale pin(s) from epochs < " << current_epoch;
  }
}

uint64_t Provider::pinned_count(const common::SegmentKey& key) const {
  uint64_t n = 0;
  for (const auto& [epoch, keys] : pins_) {
    auto it = keys.find(key);
    if (it != keys.end()) n += it->second;
  }
  return n;
}

size_t Provider::pin_ledger_size() const {
  size_t n = 0;
  for (const auto& [epoch, keys] : pins_) n += keys.size();
  return n;
}

const common::Bytes* Provider::dedup_lookup(uint64_t token) {
  if (token == 0) return nullptr;
  auto it = dedup_.find(token);
  if (it == dedup_.end()) return nullptr;
  ++stats_.deduped_replays;
  return &it->second;
}

void Provider::dedup_store(uint64_t token, const common::Bytes& response) {
  if (token == 0) return;
  if (!dedup_.emplace(token, response).second) return;  // already cached
  dedup_order_.push_back(token);
  if (backend_ != nullptr) {
    auto st = backend_->put(
        token_key(token),
        common::Buffer::dense(encode(TokenRecord{++dedup_seq_, response})));
    if (!st.ok()) EVO_WARN << "dedup_store: " << st.to_string();
  }
  while (dedup_order_.size() > config_.dedup_window) {
    uint64_t evict = dedup_order_.front();
    dedup_order_.pop_front();
    dedup_.erase(evict);
    if (backend_ != nullptr) (void)backend_->erase(token_key(evict));
  }
}

void Provider::restart() {
  ++stats_.restarts;
  models_.clear();
  owned_stale_ = true;
  segments_.clear();
  tombstones_.clear();
  pins_.clear();
  last_pin_epoch_ = 0;
  dedup_.clear();
  dedup_order_.clear();
  for (const auto& [seq, hint] : hints_) note_parked(hint, -1);
  hints_.clear();
  hint_seq_ = 0;
  payload_bytes_ = 0;
  physical_bytes_ = 0;
  inline_physical_bytes_ = 0;
  chunk_store_.clear();
  codec_usage_ = {};
  seq_ = 0;
  dedup_seq_ = 0;
  if (backend_ != nullptr) restore_from_backend();
  if (obs::EventLog* ev = events()) {
    ev->record(sim_->now(), "provider.recover", node_,
               {{"models", obs::EventLog::u64(models_.size())},
                {"segments", obs::EventLog::u64(segments_.size())},
                {"hints", obs::EventLog::u64(hints_.size())}});
  }
  EVO_INFO << "provider " << id_ << " restarted: " << models_.size()
           << " models, " << segments_.size() << " segments recovered";
}

void Provider::restore_from_backend() {
  // Sort for a deterministic rebuild regardless of the backend's native key
  // order (MemKv hashes, LogKv replays the log).
  std::vector<std::string> keys = backend_->keys();
  std::sort(keys.begin(), keys.end());
  // dedup seq -> (token, packed response), in the FIFO order rebuilt below.
  std::multimap<uint64_t, std::pair<uint64_t, common::Bytes>> tokens;
  for (const auto& key : keys) {
    auto value = backend_->get(key);
    if (!value.ok()) continue;
    // Every record is dense serde output; a synthetic value is corrupt, and
    // reading it would allocate its full logical size.
    if (value->is_synthetic()) {
      EVO_WARN << "restore: synthetic value under '" << key
               << "' is not a record";
      continue;
    }
    common::Deserializer d(value->dense_span());
    if (key.rfind("chunk/", 0) == 0) {
      // Sorted iteration visits "chunk/" before "meta/" and "seg/", so every
      // chunk record is installed (at zero references) before any surviving
      // segment manifest re-references it below.
      if (!chunk_store_.restore_record(key, value->dense_span())) {
        EVO_WARN << "restore: corrupt chunk record '" << key << "'";
      }
    } else if (key.rfind("tok/", 0) == 0) {
      uint64_t token = std::strtoull(key.c_str() + 4, nullptr, 10);
      auto record = decode<TokenRecord>(d);
      if (!d.finish().ok()) {
        EVO_WARN << "restore: corrupt token record '" << key << "'";
        continue;
      }
      tokens.emplace(record.seq, std::pair(token, std::move(record.response)));
    } else if (key.rfind("tomb/", 0) == 0) {
      tombstones_.insert(
          common::ModelId{std::strtoull(key.c_str() + 5, nullptr, 10)});
    } else if (key.rfind("hint/", 0) == 0) {
      // Parked hinted handoffs survive this provider's own crashes: the
      // guarantee is "replayed once the target recovers", not "replayed
      // unless the custodian also crashed in between".
      uint64_t seq = std::strtoull(key.c_str() + 5, nullptr, 10);
      wire::HintRecord hint = decode<wire::HintRecord>(d);
      if (!d.finish().ok()) {
        EVO_WARN << "restore: corrupt hint record '" << key << "'";
        continue;
      }
      hint_seq_ = std::max(hint_seq_, seq);
      note_parked(hint, +1);
      hints_.emplace(seq, std::move(hint));
    } else if (key.rfind("meta/", 0) == 0) {
      common::ModelId id{std::strtoull(key.c_str() + 5, nullptr, 10)};
      auto meta = decode<MetaRecord>(d);
      if (!d.finish().ok()) {
        EVO_WARN << "restore: corrupt metadata record '" << key << "'";
        continue;
      }
      seq_ = std::max(seq_, meta.store_seq);
      install_model(id, std::move(meta));
    } else if (key.rfind("pin/", 0) == 0) {
      // "pin/<epoch>/<owner>/<vertex>" -> u64 outstanding pin count. The
      // ledger survives provider crashes so a client-incarnation bump can
      // still reap pins recorded before the crash.
      const char* p = key.c_str() + 4;
      char* end = nullptr;
      uint64_t epoch = std::strtoull(p, &end, 10);
      if (end == nullptr || *end != '/') continue;
      common::ModelId owner{std::strtoull(end + 1, &end, 10)};
      if (end == nullptr || *end != '/') continue;
      auto vertex =
          static_cast<common::VertexId>(std::strtoul(end + 1, nullptr, 10));
      auto count = decode<uint64_t>(d);
      if (!d.finish().ok() || count == 0) {
        EVO_WARN << "restore: corrupt pin record '" << key << "'";
        continue;
      }
      pins_[epoch][common::SegmentKey{owner, vertex}] =
          static_cast<uint32_t>(count);
    } else if (key.rfind("seg/", 0) == 0) {
      const char* p = key.c_str() + 4;
      char* end = nullptr;
      common::ModelId owner{std::strtoull(p, &end, 10)};
      if (end == nullptr || *end != '/') continue;
      auto vertex = static_cast<common::VertexId>(
          std::strtoul(end + 1, nullptr, 10));
      auto entry = decode<SegEntry>(d);
      if (!d.finish().ok()) {
        EVO_WARN << "restore: corrupt segment record '" << key << "'";
        continue;
      }
      // Versions share the store sequence; segments can outlive their
      // model's metadata (retired model, still-referenced segments), so the
      // sequence restores from both.
      seq_ = std::max(seq_, entry.version);
      if (entry.segment.kind == compress::EnvelopeKind::kChunked) {
        // Re-take the manifest's chunk references. A manifest pointing at a
        // chunk whose record did not survive is unreadable: drop it (and its
        // backend record) rather than restore a segment no read can serve.
        size_t taken = 0;
        bool complete = true;
        for (const compress::ChunkRef& c : entry.segment.chunks) {
          if (!chunk_store_.add_ref_existing(c.digest)) {
            complete = false;
            break;
          }
          ++taken;
        }
        if (!complete) {
          for (size_t i = 0; i < taken; ++i) {
            chunk_store_.release(entry.segment.chunks[i].digest);
          }
          EVO_WARN << "restore: segment record '" << key
                   << "' references missing chunks; dropped";
          (void)backend_->erase(key);
          continue;
        }
      }
      account_stored(entry.segment, +1);
      segments_.emplace(common::SegmentKey{owner, vertex}, std::move(entry));
    }
  }
  // Rebuild the idempotency cache in its original FIFO order so a retry
  // arriving after a crash still replays instead of re-applying.
  for (auto& [at, entry] : tokens) {
    dedup_seq_ = std::max(dedup_seq_, at);
    if (dedup_.emplace(entry.first, std::move(entry.second)).second) {
      dedup_order_.push_back(entry.first);
    }
  }
  // Chunk records whose every referencing manifest died with the crash (the
  // put persisted its chunks but not yet its segment) are orphans: sweep
  // them so the store and the backend reflect only reachable chunks.
  size_t orphans = chunk_store_.drop_unreferenced();
  if (orphans > 0) {
    EVO_INFO << "restore: dropped " << orphans << " orphaned chunk(s)";
  }
}

sim::CoTask<void> Provider::charge_pool(double bytes) {
  if (!pool_enabled_ || bytes <= 0) co_return;
  std::vector<sim::PortId> path;
  path.push_back(pool_port_);
  co_await flows_->transfer(std::move(path), bytes);
}

void Provider::register_handlers(net::RpcSystem& rpc) {
  rpc.register_handler(node_, kPutModel, [this](Bytes b, net::HandlerContext c) {
    return handle_put(std::move(b), c);
  });
  rpc.register_handler(node_, kGetMeta, [this](Bytes b) {
    return handle_get_meta(std::move(b));
  });
  rpc.register_handler(node_, kReadSegments,
                       [this](Bytes b, net::HandlerContext c) {
                         return handle_read_segments(std::move(b), c);
                       });
  rpc.register_handler(node_, kModifyRefs,
                       [this](Bytes b, net::HandlerContext c) {
                         return handle_modify_refs(std::move(b), c);
                       });
  rpc.register_handler(node_, kRetire, [this](Bytes b) {
    return handle_retire(std::move(b));
  });
  rpc.register_handler(node_, kLcpQuery,
                       [this](Bytes b, net::HandlerContext c) {
                         return handle_lcp_query(std::move(b), c);
                       });
  rpc.register_handler(node_, kLcpTakeover,
                       [this](Bytes b, net::HandlerContext c) {
                         return handle_lcp_takeover(std::move(b), c);
                       });
  rpc.register_handler(node_, kGetStats, [this](Bytes b) {
    return handle_get_stats(std::move(b));
  });
  rpc.register_handler(node_, kStoreHint, [this](Bytes b) {
    return handle_store_hint(std::move(b));
  });
  rpc.register_handler(node_, kReplicate,
                       [this](Bytes b, net::HandlerContext c) {
                         return handle_replicate(std::move(b), c);
                       });
  rpc.register_handler(node_, kFetchChunks,
                       [this](Bytes b, net::HandlerContext c) {
                         return handle_fetch_chunks(std::move(b), c);
                       });
  rpc.register_handler(node_, kDrain, [this](Bytes b, net::HandlerContext c) {
    return handle_drain(std::move(b), c);
  });
  rpc.register_handler(node_, kRepairPeer,
                       [this](Bytes b, net::HandlerContext c) {
                         return handle_repair(std::move(b), c);
                       });
}

int Provider::refcount(const common::SegmentKey& key) const {
  auto it = segments_.find(key);
  return it == segments_.end() ? 0 : it->second.refs;
}

size_t Provider::metadata_bytes() const {
  size_t n = 0;
  for (const auto& [id, entry] : models_) {
    n += entry.meta.owners.metadata_bytes();
    // Compact graph: per vertex, a signature (16B) plus edge list entries.
    n += entry.meta.graph.size() * 16 + entry.meta.graph.edge_count() * 4;
  }
  return n;
}

std::vector<ModelId> Provider::model_ids() const {
  std::vector<ModelId> out;
  out.reserve(models_.size());
  for (const auto& [id, entry] : models_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

sim::CoTask<Bytes> Provider::handle_put(Bytes request,
                                        net::HandlerContext ctx) {
  double t0 = sim_->now();
  common::Deserializer d(request);
  auto req = decode<wire::PutModelRequest>(d);
  wire::PutModelResponse resp;
  if (!d.ok()) {
    resp.status = d.status();
    co_return encode(resp);
  }
  ++stats_.puts;
  if (drained_) {
    resp.status = Status::Unavailable("provider " + std::to_string(id_) +
                                      " drained");
    co_return encode(resp);
  }
  // A token minted by a newer client incarnation proves the older ones are
  // gone — reap the transfer pins they leaked (DESIGN.md §14).
  observe_epoch(req.token);
  co_await sim_->delay(config_.op_seconds +
                       config_.per_segment_seconds *
                           static_cast<double>(req.new_segments.size()));
  if (id_taken(req.id)) {
    resp.status = Status::AlreadyExists("model " + req.id.to_string());
    co_return encode(resp);
  }
  uint64_t physical = 0;
  for (const auto& [v, env] : req.new_segments) {
    // Manifests are provider-local (they index this provider's chunk
    // store); a client can only ever submit inline envelopes.
    if (env.kind != compress::EnvelopeKind::kInline) {
      resp.status = Status::InvalidArgument("chunked envelope on the wire");
      co_return encode(resp);
    }
    physical += env.physical_bytes;
  }
  {
    // The pool moves what is actually stored: post-compression bytes.
    obs::Span write = obs::Tracer::maybe_begin(tracer(), "segment_write",
                                               node_, ctx.trace);
    write.tag_u64("segments", req.new_segments.size());
    write.tag_u64("physical_bytes", physical);
    co_await charge_pool(static_cast<double>(physical));
  }
  // Re-check after the await: a drain may have started (committing into a
  // catalog the drain already migrated would strand the model) ...
  if (drained_) {
    resp.status = Status::Unavailable("provider " + std::to_string(id_) +
                                      " drained");
    co_return encode(resp);
  }
  // ... and a deadline-driven retry of this same put may have landed while
  // the pool transfer ran (model ids are globally unique, so AlreadyExists
  // here can only mean an earlier attempt succeeded), or a retire overtook
  // it.
  if (id_taken(req.id)) {
    resp.status = Status::AlreadyExists("model " + req.id.to_string());
    co_return encode(resp);
  }
  MetaRecord meta{std::move(req.graph), std::move(req.owners), req.quality,
                  req.ancestor, sim_->now(), ++seq_};
  resp.store_seq = meta.store_seq;
  {
    // Commit metadata + segments to the catalog and (when backed) the
    // persistent KV. Instantaneous in sim time — the span exists for its
    // parent/child link under the put, not its duration.
    obs::Span commit =
        obs::Tracer::maybe_begin(tracer(), "kv_commit", node_, ctx.trace);
    commit.tag_u64("segments", req.new_segments.size());
    commit.tag("backed", backend_ != nullptr ? "true" : "false");
    persist_meta(req.id, meta);
    install_model(req.id, std::move(meta));
    for (auto& [v, env] : req.new_segments) {
      common::SegmentKey key{req.id, v};
      stats_.logical_bytes_ingested += env.logical_bytes;
      stats_.physical_bytes_ingested += env.physical_bytes;
      // Storage decision, after the wire cost is paid: large payloads are
      // split into deduplicated chunks and the envelope keeps a manifest.
      maybe_chunk(env);
      account_stored(env, +1);
      segments_[key] = SegEntry{std::move(env), 1, resp.store_seq};
      persist_segment(key, segments_[key]);
    }
  }
  record(hist_put_seconds_, shared_put_seconds_, sim_->now() - t0);
  record(hist_put_bytes_, shared_put_bytes_, static_cast<double>(physical));
  resp.status = Status::Ok();
  co_return encode(resp);
}

sim::CoTask<Bytes> Provider::handle_get_meta(Bytes request) {
  common::Deserializer d(request);
  auto req = decode<wire::GetMetaRequest>(d);
  wire::GetMetaResponse resp;
  ++stats_.meta_gets;
  co_await sim_->delay(config_.op_seconds);
  auto it = models_.find(req.id);
  if (it != models_.end() && d.ok()) {
    resp.found = true;
    resp.meta = it->second.meta;
  }
  co_return encode(resp);
}

sim::CoTask<Bytes> Provider::handle_read_segments(Bytes request,
                                                  net::HandlerContext ctx) {
  double t0 = sim_->now();
  common::Deserializer d(request);
  auto req = decode<wire::ReadSegmentsRequest>(d);
  wire::ReadSegmentsResponse resp;
  if (!d.ok()) {
    resp.status = d.status();
    co_return encode(resp);
  }
  ++stats_.segment_reads;
  co_await sim_->delay(config_.op_seconds +
                       config_.per_segment_seconds *
                           static_cast<double>(req.keys.size()));
  resp.segments.reserve(req.keys.size());
  for (const auto& key : req.keys) {
    auto it = segments_.find(key);
    // Chunked envelopes resolve back to inline here: the manifest only
    // means something to this provider's chunk store, and the wire cost of
    // a read is the full post-compression payload either way.
    auto env = it == segments_.end()
                   ? common::Result<compress::CompressedSegment>(
                         Status::NotFound("segment " + key.to_string()))
                   : reassemble(it->second.segment);
    if (!env.ok()) {
      resp.segments.clear();
      resp.payload_bytes = 0;
      resp.status = env.status();
      co_return encode(resp);
    }
    resp.payload_bytes += env->physical_bytes;
    resp.segments.push_back(std::move(*env));
  }
  {
    obs::Span fetch = obs::Tracer::maybe_begin(tracer(), "segment_read",
                                               node_, ctx.trace);
    fetch.tag_u64("segments", req.keys.size());
    fetch.tag_u64("physical_bytes", resp.payload_bytes);
    co_await charge_pool(static_cast<double>(resp.payload_bytes));
  }
  record(hist_read_seconds_, shared_read_seconds_, sim_->now() - t0);
  record(hist_read_bytes_, shared_read_bytes_,
         static_cast<double>(resp.payload_bytes));
  resp.status = Status::Ok();
  co_return encode(resp);
}

sim::CoTask<Bytes> Provider::handle_modify_refs(Bytes request,
                                                net::HandlerContext ctx) {
  double t0 = sim_->now();
  common::Deserializer d(request);
  auto req = decode<wire::ModifyRefsRequest>(d);
  wire::ModifyRefsResponse resp;
  if (!d.ok()) {
    resp.status = d.status();
    co_return encode(resp);
  }
  obs::Span span =
      obs::Tracer::maybe_begin(tracer(), "modify_refs", node_, ctx.trace);
  span.tag_u64("keys", req.keys.size());
  span.tag("increment", req.increment ? "true" : "false");
  co_await sim_->delay(config_.per_segment_seconds *
                       static_cast<double>(req.keys.size()));
  // Retry of an already-applied request: replay the cached response instead
  // of double-applying the deltas (the first delivery's response was lost).
  if (const common::Bytes* cached = dedup_lookup(req.token)) {
    co_return *cached;
  }
  // A token from a newer client incarnation proves every older incarnation
  // is gone: reap their leaked pins before applying this request.
  observe_epoch(req.token);
  if (req.pin_consume && req.pin_epoch != 0) {
    // The pin became a stored model's permanent reference at put time:
    // clear the ledger entries, leave the refcounts alone.
    for (const auto& key : req.keys) pin_remove(req.pin_epoch, key);
    resp.status = Status::Ok();
    span.tag("pin_consume", "true");
    record(hist_refs_seconds_, shared_refs_seconds_, sim_->now() - t0);
    Bytes consumed = encode(resp);
    dedup_store(req.token, consumed);
    co_return consumed;
  }
  for (const auto& key : req.keys) {
    if (req.increment) {
      auto it = segments_.find(key);
      if (it == segments_.end()) {
        ++resp.missing;
        resp.missing_keys.push_back(key);
        continue;
      }
      ++it->second.refs;
      ++stats_.refs_added;
      persist_segment(key, it->second);
      if (req.pin_epoch != 0) pin_add(req.pin_epoch, key);
    } else {
      // Pinned decrements clear their ledger entry whether or not the
      // segment still exists (rollback may race a concurrent free).
      if (req.pin_epoch != 0) pin_remove(req.pin_epoch, key);
      if (!release_ref(key, &resp.freed_bytes, &resp.freed_bases)) {
        ++resp.missing;
        resp.missing_keys.push_back(key);
      }
    }
  }
  resp.status = resp.missing == 0
                    ? Status::Ok()
                    : Status::NotFound(std::to_string(resp.missing) +
                                       " segment(s) missing");
  span.tag_u64("freed_bases", resp.freed_bases.size());
  if (resp.freed_bytes > 0) {
    if (obs::EventLog* ev = events()) {
      // Aggregated per request: how many logical bytes this decrement batch
      // actually freed (refcounts that hit zero), for GC-rate time-series.
      ev->record(sim_->now(), "gc.segment_freed", node_,
                 {{"bytes", obs::EventLog::u64(resp.freed_bytes)},
                  {"cascade_bases",
                   obs::EventLog::u64(resp.freed_bases.size())}});
    }
  }
  record(hist_refs_seconds_, shared_refs_seconds_, sim_->now() - t0);
  Bytes packed = encode(resp);
  dedup_store(req.token, packed);
  co_return packed;
}

sim::CoTask<Bytes> Provider::handle_retire(Bytes request) {
  common::Deserializer d(request);
  auto req = decode<wire::RetireRequest>(d);
  wire::RetireResponse resp;
  ++stats_.retires;
  co_await sim_->delay(config_.op_seconds);
  // A retried retire whose first delivery applied must replay the original
  // response (with the owner map) — a fresh lookup would answer NotFound and
  // the caller could never run the reference decrements.
  if (d.ok()) {
    if (const common::Bytes* cached = dedup_lookup(req.token)) {
      co_return *cached;
    }
    observe_epoch(req.token);
    // Tombstone first, found or not: a put parked for this replica may
    // still replay after the retire, and must not bring the model back.
    add_tombstone(req.id);
  }
  auto it = models_.find(req.id);
  if (it == models_.end() || !d.ok()) {
    resp.status = Status::NotFound("model " + req.id.to_string());
    co_return encode(resp);
  }
  resp.owners = std::move(it->second.meta.owners);
  // Metadata is removed eagerly; segment payloads survive until their
  // reference counts (decremented by the client fan-out) reach zero.
  models_.erase(it);
  owned_stale_ = true;
  erase_meta(req.id);
  resp.status = Status::Ok();
  Bytes packed = encode(resp);
  dedup_store(req.token, packed);
  co_return packed;
}

// ---- LCP scan ownership (DESIGN.md §17) ---------------------------------

void Provider::install_model(common::ModelId id, MetaRecord meta) {
  models_.emplace(id, CatalogEntry{std::move(meta), membership_->replicas(id)});
  owned_stale_ = true;
}

void Provider::refresh_placement() {
  if (membership_->version() == placed_version_) return;
  placed_version_ = membership_->version();
  for (auto& [id, entry] : models_) entry.replicas = membership_->replicas(id);
  owned_stale_ = true;
}

const std::vector<LcpCandidate>& Provider::owned_rows() {
  if (owned_stale_) {
    owned_.clear();
    for (const auto& [id, entry] : models_) {
      if (!entry.replicas.empty() && entry.replicas.front() == id_) {
        owned_.push_back({id, &entry.meta.graph, entry.meta.quality});
      }
    }
    owned_stale_ = false;
  }
  return owned_;
}

bool Provider::takes_over(const CatalogEntry& e,
                          const wire::LcpTakeoverRequest& takeover) const {
  if (e.replicas.empty()) return false;  // no live provider left at all
  auto in = [](const std::vector<common::ProviderId>& set,
               common::ProviderId p) {
    return std::find(set.begin(), set.end(), p) != set.end();
  };
  auto failed = [&](common::ProviderId p) { return in(takeover.failed, p); };
  auto out = [&](common::ProviderId p) {
    return failed(p) || in(takeover.recovering, p);
  };
  // Owned by a plain-round responder: already scanned.
  if (!out(e.replicas.front())) return false;
  for (common::ProviderId p : e.replicas) {
    if (!out(p)) return p == id_;
  }
  // Every replica is out: the first reachable (recovering) one scans what
  // it holds.
  for (common::ProviderId p : e.replicas) {
    if (!failed(p)) return p == id_;
  }
  return false;
}

sim::CoTask<wire::LcpQueryResponse> Provider::scan_catalog(
    model::ArchGraph g, const wire::LcpTakeoverRequest* takeover,
    obs::TraceContext trace) {
  double t0 = sim_->now();
  obs::Span span = obs::Tracer::maybe_begin(tracer(), "lcp_scan", node_, trace);
  refresh_placement();
  // A plain query scans the owned rows. A takeover is rare, so it walks the
  // whole catalog for the share it inherits.
  std::vector<LcpCandidate> inherited;
  if (takeover != nullptr) {
    for (const auto& [id, entry] : models_) {
      if (takes_over(entry, *takeover)) {
        inherited.push_back({id, &entry.meta.graph, entry.meta.quality});
      }
    }
  }
  const std::vector<LcpCandidate>& rows =
      takeover == nullptr ? owned_rows() : inherited;
  const uint64_t scanned = rows.size();
  LcpCost cost;
  LcpBest best = scan_candidates(g, rows, lcp_ws_, &cost);
  wire::LcpQueryResponse resp;
  resp.found = best.found;
  resp.ancestor = best.id;
  resp.quality = best.quality;
  resp.matches = std::move(best.matches);
  stats_.lcp_models_scanned += scanned;
  stats_.lcp_vertex_visits += cost.vertex_visits;
  // Charge the scan's CPU time (the map step of the collective query).
  co_await sim_->delay(
      config_.lcp_per_model_seconds * static_cast<double>(scanned) +
      config_.lcp_visit_seconds * static_cast<double>(cost.vertex_visits));
  if (takeover != nullptr) span.tag("takeover", "true");
  span.tag_u64("models_scanned", scanned);
  span.tag_u64("vertex_visits", cost.vertex_visits);
  span.tag("found", resp.found ? "true" : "false");
  record(hist_lcp_seconds_, shared_lcp_seconds_, sim_->now() - t0);
  co_return resp;
}

sim::CoTask<Bytes> Provider::handle_lcp_query(Bytes request,
                                              net::HandlerContext ctx) {
  common::Deserializer d(request);
  auto req = decode<wire::LcpQueryRequest>(d);
  if (!d.ok()) co_return encode(wire::LcpQueryResponse{});
  ++stats_.lcp_queries;
  co_return encode(
      co_await scan_catalog(std::move(req.graph), nullptr, ctx.trace));
}

sim::CoTask<Bytes> Provider::handle_lcp_takeover(Bytes request,
                                                 net::HandlerContext ctx) {
  common::Deserializer d(request);
  auto req = decode<wire::LcpTakeoverRequest>(d);
  if (!d.ok()) co_return encode(wire::LcpQueryResponse{});
  co_return encode(
      co_await scan_catalog(std::move(req.graph), &req, ctx.trace));
}

// ---- replication fault model (DESIGN.md §15) ----------------------------

std::string Provider::hint_key(uint64_t seq) {
  // Zero-padded so the backend's lexicographic key sort (restore order)
  // equals numeric arrival order.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "hint/%020llu",
                static_cast<unsigned long long>(seq));
  return buf;
}

uint64_t Provider::record_hint(wire::HintRecord hint) {
  uint64_t seq = ++hint_seq_;
  if (backend_ != nullptr) {
    auto st = backend_->put(hint_key(seq), common::Buffer::dense(encode(hint)));
    if (!st.ok()) EVO_WARN << "record_hint: " << st.to_string();
  }
  common::ProviderId target = hint.target;
  note_parked(hint, +1);
  hints_.emplace(seq, std::move(hint));
  ++stats_.hints_recorded;
  if (obs::EventLog* ev = events()) {
    // The analyzer balances hint lifecycles: every `hint.recorded` count
    // must eventually be matched by a replay, a supersede (repair made the
    // hint moot), or a move (drain re-parked it — the refuge re-records it,
    // so a moved hint contributes to both sides consistently).
    ev->record(sim_->now(), "hint.recorded", node_,
               {{"count", "1"}, {"target", obs::EventLog::u64(target)}});
  }
  return seq;
}

void Provider::erase_hint(uint64_t seq) {
  auto it = hints_.find(seq);
  if (it == hints_.end()) return;
  note_parked(it->second, -1);
  hints_.erase(it);
  if (backend_ != nullptr) (void)backend_->erase(hint_key(seq));
}

size_t Provider::hint_count_for(common::ProviderId target) const {
  size_t n = 0;
  for (const auto& [seq, hint] : hints_) {
    if (hint.target == target) ++n;
  }
  return n;
}

sim::CoTask<uint64_t> Provider::replay_hints(common::ProviderId target,
                                             common::NodeId target_node) {
  // Snapshot the matching sequence numbers first: hints_ can gain or lose
  // entries while this coroutine is suspended (a concurrent store_hint, a
  // racing discard after repair) and no iterator may be held across a
  // co_await.
  std::vector<uint64_t> seqs;
  for (const auto& [seq, hint] : hints_) {
    if (hint.target == target) seqs.push_back(seq);
  }
  // Roots its own trace: replay is triggered by a restart hook, not an RPC.
  obs::Span span =
      obs::Tracer::maybe_begin(tracer(), "replay_hints", node_);
  span.tag_u64("target", target);
  span.tag_u64("parked", seqs.size());
  uint64_t replayed = 0;
  for (uint64_t seq : seqs) {
    auto it = hints_.find(seq);
    if (it == hints_.end()) continue;  // discarded while we were replaying
    // Copies, not references: the map entry must not be touched across the
    // suspension below.
    std::string method = it->second.method;
    Bytes payload = it->second.payload;
    net::CallOptions opts;
    opts.timeout = config_.peer_rpc_timeout;
    opts.parent = span.context();
    auto r = co_await rpc_->call(node_, target_node, method,
                                 std::move(payload), opts);
    if (!r.ok()) break;  // target went down again; keep the rest parked
    // Re-check after the suspension: a repair that finished while this
    // call was in flight already discarded (and accounted) the hint —
    // counting it replayed too would double-resolve it.
    if (hints_.find(seq) == hints_.end()) continue;
    // The response itself is method-specific and belongs to a client that
    // has long since given up on it; transport delivery is what matters —
    // the original idempotency token inside the payload made the apply
    // exactly-once.
    ++stats_.hints_replayed;
    erase_hint(seq);
    ++replayed;
  }
  span.tag_u64("replayed", replayed);
  span.tag("outcome", replayed == seqs.size() ? "ok" : "interrupted");
  if (replayed > 0) {
    if (obs::EventLog* ev = events()) {
      ev->record(sim_->now(), "hint.replayed", node_,
                 {{"count", obs::EventLog::u64(replayed)},
                  {"target", obs::EventLog::u64(target)}});
    }
    EVO_INFO << "provider " << id_ << " replayed " << replayed
             << " hint(s) to recovered provider " << target;
  }
  co_return replayed;
}

uint64_t Provider::discard_hints_for(common::ProviderId target) {
  uint64_t discarded = 0;
  for (auto it = hints_.begin(); it != hints_.end();) {
    if (it->second.target == target) {
      if (backend_ != nullptr) (void)backend_->erase(hint_key(it->first));
      note_parked(it->second, -1);
      it = hints_.erase(it);
      ++discarded;
    } else {
      ++it;
    }
  }
  stats_.hints_discarded += discarded;
  if (discarded > 0) {
    if (obs::EventLog* ev = events()) {
      ev->record(sim_->now(), "hint.superseded", node_,
                 {{"count", obs::EventLog::u64(discarded)},
                  {"target", obs::EventLog::u64(target)}});
    }
  }
  return discarded;
}

sim::CoTask<Bytes> Provider::handle_store_hint(Bytes request) {
  common::Deserializer d(request);
  auto req = decode<wire::StoreHintRequest>(d);
  wire::StoreHintResponse resp;
  if (!d.ok()) {
    resp.status = d.status();
    co_return encode(resp);
  }
  co_await sim_->delay(config_.op_seconds);
  if (drained_) {
    resp.status = Status::Unavailable("provider " + std::to_string(id_) +
                                      " drained");
    co_return encode(resp);
  }
  record_hint(std::move(req.hint));
  resp.status = Status::Ok();
  co_return encode(resp);
}

sim::CoTask<Bytes> Provider::handle_fetch_chunks(Bytes request,
                                                 net::HandlerContext ctx) {
  common::Deserializer d(request);
  auto req = decode<wire::FetchChunksRequest>(d);
  wire::FetchChunksResponse resp;
  if (!d.ok()) {
    resp.status = d.status();
    co_return encode(resp);
  }
  co_await sim_->delay(config_.op_seconds +
                       config_.per_segment_seconds *
                           static_cast<double>(req.digests.size()));
  for (const auto& digest : req.digests) {
    const storage::ChunkStore::Chunk* chunk = chunk_store_.find(digest);
    if (chunk == nullptr) continue;  // requester retries elsewhere
    resp.chunks.push_back(wire::ChunkBodyEntry{digest, chunk->bytes,
                                               chunk->cost});
    resp.payload_bytes += chunk->cost;
  }
  {
    obs::Span fetch = obs::Tracer::maybe_begin(tracer(), "chunk_serve",
                                               node_, ctx.trace);
    fetch.tag_u64("chunks", resp.chunks.size());
    fetch.tag_u64("physical_bytes", resp.payload_bytes);
    co_await charge_pool(static_cast<double>(resp.payload_bytes));
  }
  // Ok even when some digests were absent: the requester falls back to the
  // next peer for the remainder.
  resp.status = Status::Ok();
  co_return encode(resp);
}

sim::CoTask<Bytes> Provider::handle_replicate(Bytes request,
                                              net::HandlerContext ctx) {
  obs::Span span =
      obs::Tracer::maybe_begin(tracer(), "replicate_serve", node_, ctx.trace);
  common::Deserializer d(request);
  auto req = decode<wire::ReplicateRequest>(d);
  wire::ReplicateResponse resp;
  if (!d.ok()) {
    resp.status = d.status();
    span.tag("outcome", resp.status.to_string());
    co_return encode(resp);
  }
  co_await sim_->delay(config_.op_seconds +
                       config_.per_segment_seconds *
                           static_cast<double>(req.segments.size()));
  if (drained_) {
    resp.status = Status::Unavailable("provider " + std::to_string(id_) +
                                      " drained");
    span.tag("outcome", resp.status.to_string());
    co_return encode(resp);
  }
  // Install-if-absent throughout: an entry already here is being actively
  // maintained by client traffic (its refcount is live GC state) and must
  // never be overwritten by an anti-entropy copy.
  if (req.has_meta && !id_taken(req.id)) {
    MetaRecord meta = std::move(req.meta);
    meta.store_seq = ++seq_;  // a local sequence, like a fresh put
    persist_meta(req.id, meta);
    install_model(req.id, std::move(meta));
    resp.installed_meta = true;
    ++stats_.replica_installed_models;
  }
  // Manifests travel as-is on this path: collect the chunk bodies the local
  // store is missing before touching any catalog state.
  std::vector<common::Hash128> missing;
  for (const auto& seg : req.segments) {
    if (segments_.find(seg.key) != segments_.end()) continue;
    if (seg.segment.kind != compress::EnvelopeKind::kChunked) continue;
    for (const compress::ChunkRef& c : seg.segment.chunks) {
      if (chunk_store_.find(c.digest) == nullptr) missing.push_back(c.digest);
    }
  }
  std::sort(missing.begin(), missing.end());
  missing.erase(std::unique(missing.begin(), missing.end()), missing.end());
  // Pull the bodies content-addressed: the pushing provider first, then any
  // other replica peer — whoever holds a digest serves it.
  std::map<common::Hash128, wire::ChunkBodyEntry> fetched;
  if (!missing.empty()) {
    std::vector<common::NodeId> sources;
    sources.push_back(req.source_node);
    for (common::NodeId n : req.peer_nodes) {
      if (n != node_ && n != req.source_node) sources.push_back(n);
    }
    for (common::NodeId source : sources) {
      if (fetched.size() == missing.size()) break;
      wire::FetchChunksRequest freq;
      for (const auto& digest : missing) {
        if (fetched.find(digest) == fetched.end()) freq.digests.push_back(digest);
      }
      net::CallOptions opts;
      opts.timeout = config_.peer_rpc_timeout;
      // Parent the chunk-pull leg under the replicate serve span so a trace
      // shows which repair/drain push paid for which body transfers.
      opts.parent = span.context();
      auto r = co_await net::typed_call<wire::FetchChunksResponse>(
          rpc_, node_, source, kFetchChunks, freq, opts);
      if (!r.ok() || !r->status.ok()) continue;
      // The bodies move over the bulk path at their modeled physical cost.
      if (r->payload_bytes > 0) {
        (void)co_await rpc_->bulk(
            source, node_, common::Buffer::synthetic(r->payload_bytes, 0));
      }
      for (auto& c : r->chunks) {
        ++resp.fetched_chunks;
        ++stats_.replica_chunks_fetched;
        fetched.emplace(c.digest, std::move(c));
      }
    }
  }
  // Install the absent segments. No suspension below this point: catalog
  // mutation and its accounting commit atomically in sim time.
  uint64_t installed_physical = 0;
  for (auto& seg : req.segments) {
    if (segments_.find(seg.key) != segments_.end()) continue;
    compress::CompressedSegment env = std::move(seg.segment);
    if (env.kind == compress::EnvelopeKind::kChunked) {
      // Re-reference chunks already here; store fetched bodies fresh. An
      // unfetchable body makes the segment unservable — skip it whole (a
      // later repair pass retries) and roll back the references taken.
      size_t taken = 0;
      bool complete = true;
      for (const compress::ChunkRef& c : env.chunks) {
        if (chunk_store_.find(c.digest) != nullptr) {
          if (!chunk_store_.add_ref_existing(c.digest)) {
            complete = false;
            break;
          }
        } else {
          auto fit = fetched.find(c.digest);
          if (fit == fetched.end()) {
            complete = false;
            break;
          }
          std::span<const std::byte> body(fit->second.bytes);
          chunk_store_.add_ref(c.digest, body, fit->second.cost);
        }
        ++taken;
      }
      if (!complete) {
        for (size_t i = 0; i < taken; ++i) {
          chunk_store_.release(env.chunks[i].digest);
        }
        continue;
      }
    }
    // The refcount travels: replication copies GC state, so the symmetric
    // decrements that arrive later balance on every replica. The version is
    // a fresh local sequence, like a fresh put's.
    SegEntry entry;
    entry.segment = std::move(env);
    entry.refs = static_cast<int32_t>(seg.refs);
    entry.version = ++seq_;
    installed_physical += entry.segment.physical_bytes;
    account_stored(entry.segment, +1);
    common::SegmentKey key = seg.key;
    segments_[key] = std::move(entry);
    persist_segment(key, segments_[key]);
    ++resp.installed_segments;
    ++stats_.replica_installed_segments;
  }
  co_await charge_pool(static_cast<double>(installed_physical));
  span.tag_u64("installed_segments", resp.installed_segments);
  span.tag_u64("fetched_chunks", resp.fetched_chunks);
  span.tag("installed_meta", resp.installed_meta ? "1" : "0");
  span.tag("outcome", "ok");
  if (obs::EventLog* ev = events()) {
    ev->record(sim_->now(), "replicate.install", node_,
               {{"model", req.id.to_string()},
                {"meta", resp.installed_meta ? "1" : "0"},
                {"segments", obs::EventLog::u64(resp.installed_segments)},
                {"chunks_fetched", obs::EventLog::u64(resp.fetched_chunks)}});
  }
  resp.status = Status::Ok();
  co_return encode(resp);
}

sim::CoTask<Provider::PushResult> Provider::push_owner(
    common::ModelId id, bool with_meta,
    std::vector<common::ProviderId> targets,
    std::vector<common::NodeId> provider_nodes,
    std::vector<common::NodeId> peer_nodes, obs::TraceContext parent) {
  wire::ReplicateRequest rr;
  rr.id = id;
  auto mit = models_.find(id);
  if (with_meta && mit != models_.end()) {
    rr.has_meta = true;
    rr.meta = mit->second.meta;
  }
  // Deterministic segment order (segments_ is hashed): sort by vertex.
  std::vector<std::pair<common::SegmentKey, const SegEntry*>> local;
  for (const auto& [key, entry] : segments_) {
    if (key.owner == id) local.push_back({key, &entry});
  }
  std::sort(local.begin(), local.end(), [](const auto& a, const auto& b) {
    return a.first.vertex < b.first.vertex;
  });
  for (const auto& [key, entry] : local) {
    rr.segments.push_back(wire::ReplicateSegment{
        key, entry->segment,
        static_cast<uint32_t>(std::max(entry->refs, 0))});
  }
  rr.source_node = node_;
  rr.peer_nodes = std::move(peer_nodes);
  PushResult result;
  result.segments = rr.segments.size();
  for (common::ProviderId target : targets) {
    if (target >= provider_nodes.size()) continue;
    net::CallOptions opts;
    opts.timeout = config_.peer_rpc_timeout;
    opts.parent = parent;
    auto r = co_await net::typed_call<wire::ReplicateResponse>(
        rpc_, node_, provider_nodes[target], kReplicate, rr, opts);
    if (!r.ok() || !r->status.ok()) result.failed.push_back(target);
  }
  co_return result;
}

sim::CoTask<Bytes> Provider::handle_drain(Bytes request,
                                          net::HandlerContext ctx) {
  common::Deserializer d(request);
  auto req = decode<wire::DrainRequest>(d);
  wire::DrainResponse resp;
  if (!d.ok()) {
    resp.status = d.status();
    co_return encode(resp);
  }
  co_await sim_->delay(config_.op_seconds);
  if (drained_) {  // idempotent: the catalog is already gone
    resp.status = Status::Ok();
    co_return encode(resp);
  }
  const size_t n = req.provider_nodes.size();
  if (n <= id_ || req.live.size() < n) {
    resp.status = Status::InvalidArgument("drain ring view too small");
    co_return encode(resp);
  }
  obs::Span span =
      obs::Tracer::maybe_begin(tracer(), "drain_serve", node_, ctx.trace);
  if (obs::EventLog* ev = events()) {
    ev->record(sim_->now(), "drain.begin", node_,
               {{"models", obs::EventLog::u64(models_.size())},
                {"segments", obs::EventLog::u64(segments_.size())},
                {"hints", obs::EventLog::u64(hints_.size())}});
  }
  // Refuse new state from here on: a put or replicate landing mid-migration
  // would commit into a catalog about to be wiped. Reads keep working off
  // the intact catalog until the wipe (in-flight readers), after which the
  // natural NotFound routes them to the surviving replicas.
  drained_ = true;
  const size_t k = req.replication == 0 ? 1 : req.replication;
  std::vector<bool> new_live(n, false);
  for (size_t i = 0; i < n; ++i) new_live[i] = req.live[i] != 0;
  new_live[id_] = false;  // this provider is leaving, whatever the view says
  std::vector<bool> old_live = new_live;
  old_live[id_] = true;
  // Every owner id with local state: models first, then orphan segment
  // owners (meta retired, payloads alive through inherited references).
  std::vector<ModelId> with_meta = model_ids();
  std::set<ModelId> orphan_owners;
  for (const auto& [key, entry] : segments_) {
    if (models_.find(key.owner) == models_.end()) orphan_owners.insert(key.owner);
  }
  // HRW's minimal-movement property does the routing: each key's new
  // replica set differs from the old one only by the joiner(s) replacing
  // this provider, so only those targets need a push.
  auto joiners_of = [&](ModelId id) {
    std::vector<common::ProviderId> joiners;
    auto old_set = replicas_for(id, n, k, old_live);
    auto new_set = replicas_for(id, n, k, new_live);
    for (common::ProviderId p : new_set) {
      if (std::find(old_set.begin(), old_set.end(), p) == old_set.end()) {
        joiners.push_back(p);
      }
    }
    std::vector<common::NodeId> peers;
    for (common::ProviderId p : old_set) {
      if (p != id_ && p < n) peers.push_back(req.provider_nodes[p]);
    }
    return std::make_pair(joiners, peers);
  };
  // Best effort: a joiner that is down right now is rebuilt by the next
  // repair pass; the surviving replicas still hold everything. Until that
  // repair the joiner lacks models in its replica sets, and a later
  // placement change can make it their owner, so it is marked awaiting
  // repair and LCP queries route its share to its peers.
  uint64_t failed_pushes = 0;
  auto mark_failed = [&](const PushResult& pushed) {
    for (common::ProviderId p : pushed.failed) {
      membership_->set_awaiting_repair(p, true);
    }
    failed_pushes += pushed.failed.size();
  };
  for (ModelId id : with_meta) {
    auto [joiners, peers] = joiners_of(id);
    PushResult pushed =
        co_await push_owner(id, /*with_meta=*/true, joiners,
                            req.provider_nodes, peers, span.context());
    mark_failed(pushed);
    ++resp.models_moved;
    resp.segments_moved += pushed.segments;
    ++stats_.drain_models_moved;
    stats_.drain_segments_moved += pushed.segments;
  }
  for (ModelId owner : orphan_owners) {
    auto [joiners, peers] = joiners_of(owner);
    PushResult pushed =
        co_await push_owner(owner, /*with_meta=*/false, joiners,
                            req.provider_nodes, peers, span.context());
    mark_failed(pushed);
    resp.segments_moved += pushed.segments;
    stats_.drain_segments_moved += pushed.segments;
  }
  // Hand the parked hints to the lowest-id surviving provider: their
  // targets may still recover and expect a replay.
  if (!hints_.empty()) {
    common::ProviderId refuge = static_cast<common::ProviderId>(n);
    for (size_t i = 0; i < n; ++i) {
      if (new_live[i]) {
        refuge = static_cast<common::ProviderId>(i);
        break;
      }
    }
    if (refuge < n) {
      std::vector<uint64_t> seqs;
      for (const auto& [seq, hint] : hints_) seqs.push_back(seq);
      const common::NodeId refuge_node = req.provider_nodes[refuge];
      for (uint64_t seq : seqs) {
        auto it = hints_.find(seq);
        if (it == hints_.end()) continue;
        wire::StoreHintRequest hreq;
        hreq.hint = it->second;  // copy: no map access across the await
        net::CallOptions opts;
        opts.timeout = config_.peer_rpc_timeout;
        auto r = co_await net::typed_call<wire::StoreHintResponse>(
            rpc_, node_, refuge_node, kStoreHint, hreq, opts);
        if (!r.ok() || !r->status.ok()) continue;
        erase_hint(seq);
        ++resp.hints_moved;
      }
      if (resp.hints_moved > 0) {
        if (obs::EventLog* ev = events()) {
          ev->record(sim_->now(), "hint.moved", node_,
                     {{"count", obs::EventLog::u64(resp.hints_moved)},
                      {"refuge", obs::EventLog::u64(refuge)}});
        }
      }
    }
  }
  // Wipe the local catalog and its durable records. The idempotency cache
  // survives: a client retry of a pre-drain mutation must still replay its
  // original response instead of hitting the drained gate.
  for (auto& [key, entry] : segments_) {
    release_chunks(entry.segment);
    account_stored(entry.segment, -1);
    erase_segment_record(key);
  }
  segments_.clear();
  for (auto& [id, entry] : models_) erase_meta(id);
  models_.clear();
  owned_stale_ = true;
  for (auto& [epoch, keys] : pins_) {
    for (auto& [key, count] : keys) persist_pin(epoch, key, 0);
  }
  pins_.clear();
  (void)chunk_store_.drop_unreferenced();
  EVO_INFO << "provider " << id_ << " drained: " << resp.models_moved
           << " models, " << resp.segments_moved << " segments moved";
  span.tag_u64("models_moved", resp.models_moved);
  span.tag_u64("segments_moved", resp.segments_moved);
  span.tag_u64("hints_moved", resp.hints_moved);
  span.tag_u64("failed_pushes", failed_pushes);
  span.tag("outcome", "ok");
  if (obs::EventLog* ev = events()) {
    // The analyzer asserts every drain.begin has a drain.end whose *_left
    // counts are all zero: nothing may remain placed on a drained node.
    ev->record(sim_->now(), "drain.end", node_,
               {{"models_left", obs::EventLog::u64(models_.size())},
                {"segments_left", obs::EventLog::u64(segments_.size())},
                {"hints_left", obs::EventLog::u64(hints_.size())},
                {"models_moved", obs::EventLog::u64(resp.models_moved)},
                {"segments_moved", obs::EventLog::u64(resp.segments_moved)},
                {"hints_moved", obs::EventLog::u64(resp.hints_moved)}});
  }
  resp.status = Status::Ok();
  co_return encode(resp);
}

sim::CoTask<Bytes> Provider::handle_repair(Bytes request,
                                           net::HandlerContext ctx) {
  common::Deserializer d(request);
  auto req = decode<wire::RepairRequest>(d);
  wire::RepairResponse resp;
  if (!d.ok()) {
    resp.status = d.status();
    co_return encode(resp);
  }
  co_await sim_->delay(config_.op_seconds);
  const size_t n = req.provider_nodes.size();
  if (drained_ || req.target == id_ || n <= req.target ||
      req.live.size() < n) {
    resp.status = Status::Ok();  // nothing this provider can contribute
    co_return encode(resp);
  }
  obs::Span span =
      obs::Tracer::maybe_begin(tracer(), "repair_serve", node_, ctx.trace);
  span.tag_u64("target", req.target);
  const size_t k = req.replication == 0 ? 1 : req.replication;
  std::vector<bool> live(n, false);
  for (size_t i = 0; i < n; ++i) live[i] = req.live[i] != 0;
  // Responsibility rule: for each owner id whose replica set contains the
  // target, the FIRST live member of the set that is not the target pushes.
  // Every peer evaluates the same deterministic rule, so the target gets
  // each model exactly once with no coordination.
  auto responsible = [&](ModelId id) {
    auto set = replicas_for(id, n, k, live);
    if (std::find(set.begin(), set.end(), req.target) == set.end()) {
      return false;
    }
    for (common::ProviderId p : set) {
      if (p != req.target) return p == id_;
    }
    return false;
  };
  auto peers_of = [&](ModelId id) {
    std::vector<common::NodeId> peers;
    for (common::ProviderId p : replicas_for(id, n, k, live)) {
      if (p != id_ && p != req.target && p < n) {
        peers.push_back(req.provider_nodes[p]);
      }
    }
    return peers;
  };
  std::vector<ModelId> with_meta = model_ids();
  std::set<ModelId> orphan_owners;
  for (const auto& [key, entry] : segments_) {
    if (models_.find(key.owner) == models_.end()) orphan_owners.insert(key.owner);
  }
  const std::vector<common::ProviderId> target_only{req.target};
  uint64_t failed = 0;
  for (ModelId id : with_meta) {
    if (!responsible(id)) continue;
    PushResult pushed =
        co_await push_owner(id, /*with_meta=*/true, target_only,
                            req.provider_nodes, peers_of(id), span.context());
    ++resp.models_pushed;
    resp.segments_pushed += pushed.segments;
    failed += pushed.failed.size();
  }
  for (ModelId owner : orphan_owners) {
    if (!responsible(owner)) continue;
    PushResult pushed =
        co_await push_owner(owner, /*with_meta=*/false, target_only,
                            req.provider_nodes, peers_of(owner),
                            span.context());
    resp.segments_pushed += pushed.segments;
    failed += pushed.failed.size();
  }
  // A push that did not land leaves the target short of models it owns:
  // report it, so the repair is not taken as complete (a replicate that
  // lands late is idempotent with the next round's push).
  resp.status = failed == 0 ? Status::Ok()
                            : Status::Unavailable(
                                  std::to_string(failed) +
                                  " replicate push(es) to provider " +
                                  std::to_string(req.target) + " failed");
  span.tag_u64("models_pushed", resp.models_pushed);
  span.tag_u64("segments_pushed", resp.segments_pushed);
  span.tag_u64("failed_pushes", failed);
  span.tag("outcome", failed == 0 ? "ok" : "interrupted");
  if (obs::EventLog* ev = events()) {
    ev->record(sim_->now(), "repair.peer_push", node_,
               {{"target", obs::EventLog::u64(req.target)},
                {"models", obs::EventLog::u64(resp.models_pushed)},
                {"segments", obs::EventLog::u64(resp.segments_pushed)}});
  }
  co_return encode(resp);
}

sim::CoTask<Bytes> Provider::handle_get_stats(Bytes request) {
  (void)request;
  ++stats_.stat_gets;
  co_await sim_->delay(config_.op_seconds);
  wire::StatsResponse resp;
  resp.ops = stats_;
  resp.dedup = chunk_store_.stats();
  resp.live = {models_.size(),
               segments_.size(),
               payload_bytes_,
               stored_physical_bytes(),
               physical_bytes_,
               chunk_store_.chunk_count(),
               chunk_store_.physical_bytes()};
  for (size_t i = 0; i < compress::kCodecCount; ++i) {
    const auto& u = codec_usage_[i];
    if (u.segments == 0) continue;
    resp.codecs.push_back(wire::CodecUsageEntry{
        static_cast<compress::CodecId>(i), u.segments, u.logical_bytes,
        u.physical_bytes});
  }
  // Local histogram digests, name-ordered (the registry iterates a
  // std::map), so the wire encoding is deterministic.
  for (const auto& [name, hist] : metrics_.histograms()) {
    obs::HistogramSummary s = hist->summary();
    resp.histograms.push_back(wire::HistogramSummaryEntry{
        std::string(name), s.count, s.sum, s.min, s.max, s.p50, s.p95,
        s.p99});
  }
  resp.status = Status::Ok();
  co_return encode(resp);
}

}  // namespace evostore::core
