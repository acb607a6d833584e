// Repository interface shared by EvoStore and the baselines, plus the
// EvoStore deployment facade.
//
// The NAS runner and the experiment harnesses talk to this interface only,
// so swapping EvoStore for HDF5+PFS(+Redis) changes nothing but the wiring —
// exactly how the paper's end-to-end comparisons are set up.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/client.h"
#include "core/provider.h"

namespace evostore::core {

class ModelRepository {
 public:
  virtual ~ModelRepository() = default;

  virtual std::string name() const = 0;

  /// Allocate a globally unique model id (EvoStoreRepository: never one an
  /// earlier repository over the same backends allocated).
  virtual ModelId allocate_id() = 0;

  /// Find the best transfer-learning ancestor for `g` (LCP semantics) and,
  /// when `fetch_payload`, read the prefix segments. nullopt => train from
  /// scratch.
  virtual sim::CoTask<Result<std::optional<TransferContext>>> prepare_transfer(
      NodeId client, const ArchGraph& g, bool fetch_payload) = 0;

  /// Persist `m`. For derived models `tc` enables incremental storage where
  /// the implementation supports it.
  virtual sim::CoTask<Status> store(NodeId client, const Model& m,
                                    const TransferContext* tc) = 0;

  /// Load a complete model.
  virtual sim::CoTask<Result<Model>> load(NodeId client, ModelId id) = 0;

  /// Retire a model dropped from the active population.
  virtual sim::CoTask<Status> retire(NodeId client, ModelId id) = 0;

  /// Logical bytes of parameter payload currently stored (dedup-aware).
  virtual size_t stored_payload_bytes() const = 0;
};

/// EvoStore deployment: providers on the given fabric nodes + per-node
/// client instances, implementing ModelRepository.
class EvoStoreRepository final : public ModelRepository {
 public:
  /// `backends` (optional) supplies one persistent KV store per provider
  /// (paper §4.3's RocksDB-class backends); pass an empty vector for pure
  /// in-memory providers. Non-owning; backends must outlive the repository.
  /// Construction bumps a persisted incarnation epoch on every backend and
  /// folds the maximum into the clients' idempotency-token namespace and
  /// into every model id it allocates, so neither a token nor an id minted
  /// here can collide with a `tok/` dedup record or a `tomb/` retire
  /// tombstone a PREVIOUS repository left in the backend. (Within
  /// one repository, provider crash-recovery deliberately keeps the epoch:
  /// in-flight retries must still match their pre-crash dedup records.)
  ///
  /// When the RpcSystem has a FaultInjector, each provider's restart() is
  /// registered as the restart hook of its node.
  EvoStoreRepository(net::RpcSystem& rpc, std::vector<NodeId> provider_nodes,
                     ProviderConfig config = {},
                     std::vector<storage::KvStore*> backends = {},
                     ClientConfig client_config = {});

  std::string name() const override { return "EvoStore"; }
  ModelId allocate_id() override {
    return ModelId::make(id_allocator(client_config_.token_epoch, 0),
                         ++id_seq_);
  }

  sim::CoTask<Result<std::optional<TransferContext>>> prepare_transfer(
      NodeId client, const ArchGraph& g, bool fetch_payload) override;
  sim::CoTask<Status> store(NodeId client, const Model& m,
                            const TransferContext* tc) override;
  sim::CoTask<Result<Model>> load(NodeId client, ModelId id) override;
  sim::CoTask<Status> retire(NodeId client, ModelId id) override;
  size_t stored_payload_bytes() const override;

  /// Physical payload bytes actually occupied across all providers
  /// (post-compression, post-chunk-dedup).
  size_t stored_physical_bytes() const;
  /// Physical bytes the same segments would occupy with the delta codec
  /// alone (no chunk dedup); the ratio to stored_physical_bytes() is the
  /// cluster-wide cross-model dedup factor.
  size_t stored_pre_dedup_physical_bytes() const;
  /// Live deduplicated chunks across all providers' chunk stores.
  size_t total_chunks() const;
  /// Cumulative modeled bytes chunk dedup avoided storing.
  uint64_t total_dedup_saved_bytes() const;

  /// Direct client access (full API incl. provenance queries).
  Client& client(NodeId node);

  /// Cluster-wide stats through the RPC path: one GetStats fan-out over
  /// every provider from `node`'s client, reduced via wire::merge_stats.
  /// This is what `--metrics-out` harnesses call so the exported snapshot
  /// reflects the same wire-visible digests a monitoring client would see.
  sim::CoTask<Result<Client::ClusterStats>> collect_stats(NodeId node);

  size_t provider_count() const { return providers_.size(); }
  Provider& provider(size_t i) { return *providers_[i]; }
  const Provider& provider(size_t i) const { return *providers_[i]; }

  /// Aggregates across providers.
  size_t total_models() const;
  size_t total_segments() const;
  size_t total_metadata_bytes() const;

  /// Shared ring-membership view installed into every client (k-way
  /// replica placement; drain flips liveness here first).
  Membership& membership() { return *membership_; }
  const Membership& membership() const { return *membership_; }

  /// Parked hinted-handoff records across all providers (converges to 0
  /// once every crashed replica has been restarted or repaired).
  size_t total_hints() const;

  /// Drain provider `p` out of the ring: flip the shared membership first
  /// (from that instant every client places on the survivors only, so the
  /// migration races no new arrivals), then drive `evostore.drain` — the
  /// provider pushes its catalog to the successor replicas of each owner id,
  /// re-homes its parked hints, and empties itself. Safe under ongoing
  /// traffic; idempotent.
  sim::CoTask<Status> drain_provider(common::ProviderId p);

  /// Anti-entropy rebuild of provider `p` after permanent data loss (its
  /// backend wiped, then restarted empty): every live peer pushes the
  /// models/segments it is first-live-responsible for, pulling chunk bodies
  /// from whichever replica has them; afterwards the now-subsumed parked
  /// hints for `p` are discarded everywhere (the pushed state already
  /// contains their effects, and `p`'s dedup records died with its backend,
  /// so replaying them would double-apply).
  sim::CoTask<Status> repair_provider(common::ProviderId p);

  /// Sum of the fault-path counters of every client created so far (all
  /// zero in a fault-free run).
  ClientFaultStats total_client_fault_stats() const;
  /// Sum of provider crash-recovery cycles and dedup-cache replays.
  uint64_t total_provider_restarts() const;
  uint64_t total_deduped_replays() const;
  /// Incarnation epoch of this repository (see ctor).
  uint64_t token_epoch() const { return client_config_.token_epoch; }

 private:
  net::RpcSystem* rpc_;
  std::vector<NodeId> provider_nodes_;
  std::shared_ptr<Membership> membership_;
  std::vector<std::unique_ptr<Provider>> providers_;
  std::vector<storage::KvStore*> backends_;  // per provider; null = none
  std::unordered_map<NodeId, std::unique_ptr<Client>> clients_;
  ClientConfig client_config_;
  uint32_t id_seq_ = 0;
  uint32_t next_client_id_ = 1;
};

}  // namespace evostore::core
