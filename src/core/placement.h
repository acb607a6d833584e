// Deterministic k-way replica placement of models onto providers.
//
// The paper's placement (§4.1) is a stateless hash of model id → one
// provider: the owner map fully describes a model's composition, so no
// directory service is needed. This file generalizes that to rendezvous
// (highest-random-weight, HRW) hashing over the current membership:
// every (model, provider) pair gets a deterministic score, and the model's
// replica set is the top-k live providers by score. HRW gives the property
// single-owner mod-hash lacks and drain/decommission requires: removing a
// provider from the ring moves ONLY the keys that provider held — every
// other key's replica set is unchanged, because the relative order of the
// surviving providers' scores never changes.
//
// Segments are placed by their OWNER model id (same as the owner-map
// metadata), so a model's meta and its self-owned segments always share one
// replica set.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/types.h"

namespace evostore::core {

/// Rendezvous score for (model, provider). Pure function of the two ids:
/// any node computes the same ranking with no coordination.
constexpr uint64_t placement_score(common::ModelId id,
                                   common::ProviderId provider) {
  return common::hash_combine(common::mix64(id.value), provider);
}

/// Top-k live providers for `id` by descending rendezvous score (ties broken
/// toward the lower provider id, which cannot happen with distinct ids but
/// keeps the sort total). `live` may be empty, meaning "all provider_count
/// providers are in the ring"; otherwise live[p] == false excludes provider
/// p from placement (drained or decommissioned). Returns fewer than k
/// providers only when fewer than k are live.
inline std::vector<common::ProviderId> replicas_for(
    common::ModelId id, size_t provider_count, size_t k,
    const std::vector<bool>& live = {}) {
  std::vector<common::ProviderId> ranked;
  ranked.reserve(provider_count);
  for (size_t p = 0; p < provider_count; ++p) {
    if (!live.empty() && !live[p]) continue;
    ranked.push_back(static_cast<common::ProviderId>(p));
  }
  if (k < ranked.size()) {
    std::partial_sort(ranked.begin(), ranked.begin() + static_cast<long>(k),
                      ranked.end(),
                      [id](common::ProviderId a, common::ProviderId b) {
                        uint64_t sa = placement_score(id, a);
                        uint64_t sb = placement_score(id, b);
                        return sa != sb ? sa > sb : a < b;
                      });
    ranked.resize(k);
  } else {
    std::sort(ranked.begin(), ranked.end(),
              [id](common::ProviderId a, common::ProviderId b) {
                uint64_t sa = placement_score(id, a);
                uint64_t sb = placement_score(id, b);
                return sa != sb ? sa > sb : a < b;
              });
  }
  return ranked;
}

/// Primary (top-1 HRW) provider for `id` over a fully-live ring. Kept for
/// single-replica deployments and call sites that only need a canonical
/// "first" placement; with k-way replication the primary is simply
/// replicas_for(...)[0].
inline common::ProviderId provider_for(common::ModelId id,
                                       size_t provider_count) {
  common::ProviderId best = 0;
  uint64_t best_score = 0;
  for (size_t p = 0; p < provider_count; ++p) {
    uint64_t s = placement_score(id, static_cast<common::ProviderId>(p));
    if (p == 0 || s > best_score) {
      best = static_cast<common::ProviderId>(p);
      best_score = s;
    }
  }
  return best;
}

/// Shared ring-membership view: which providers participate in placement and
/// how many replicas each key gets. One instance is shared (by shared_ptr)
/// between the repository, its providers and every client it hands out, so a
/// drain observed by the repository immediately redirects all clients'
/// placement. Drained providers stay addressable on the wire (their node ids
/// remain valid) but receive no new placements.
///
/// A live provider can also be *recovering*: it is in placement but may lack
/// models it owns, because puts or retires aimed at it are parked as hints
/// on its peers, or because it awaits repair (it came back from a wiped
/// backend, or a put committed without it and left no hint for it). LCP
/// queries route a recovering provider's scan share to the next replica.
/// Clients read this state from the shared object at no simulated cost, a
/// modelling shortcut (DESIGN.md §17).
class Membership {
 public:
  Membership(size_t provider_count, size_t replication)
      : live_(provider_count, true),
        parked_hints_(provider_count, 0),
        awaiting_repair_(provider_count, false),
        replication_(replication == 0 ? 1 : replication) {}

  size_t provider_count() const { return live_.size(); }
  size_t replication() const { return replication_; }

  bool is_live(common::ProviderId p) const {
    return p < live_.size() && live_[p];
  }
  size_t live_count() const {
    return static_cast<size_t>(std::count(live_.begin(), live_.end(), true));
  }

  /// Remove a provider from placement (drain/decommission). Idempotent.
  void retire_provider(common::ProviderId p) {
    if (p < live_.size() && live_[p]) {
      live_[p] = false;
      ++version_;
    }
  }

  const std::vector<bool>& live() const { return live_; }
  /// Bumped by every placement change, so holders of cached replica sets
  /// know when to recompute them.
  uint64_t version() const { return version_; }

  /// Catalog-changing hints parked for `target` across all its peers
  /// changed by `delta`.
  void add_parked_hints(common::ProviderId target, int64_t delta) {
    if (target < parked_hints_.size()) parked_hints_[target] += delta;
  }
  /// `p` may lack models only a repair brings back (true), or a repair
  /// completed (false).
  void set_awaiting_repair(common::ProviderId p, bool awaiting) {
    if (p < awaiting_repair_.size()) awaiting_repair_[p] = awaiting;
  }
  bool is_recovering(common::ProviderId p) const {
    return p < live_.size() && (parked_hints_[p] > 0 || awaiting_repair_[p]);
  }

  /// Replica set for `id` under the current membership, clamped to the live
  /// provider count.
  std::vector<common::ProviderId> replicas(common::ModelId id) const {
    return replicas_for(id, live_.size(), replication_, live_);
  }

 private:
  std::vector<bool> live_;
  std::vector<int64_t> parked_hints_;
  std::vector<bool> awaiting_repair_;
  size_t replication_;
  uint64_t version_ = 0;
};

}  // namespace evostore::core
