// Owner maps (paper §4.1): the per-model metadata structure at the heart of
// EvoStore's incremental storage and provenance support.
//
// For every leaf-layer vertex of a model's flattened graph, the owner map
// records a `SegmentKey` — (owner model id, vertex id *in the owner's own
// graph*) — identifying the stored parameter segment to read. The owner is
// the most recent ancestor that modified the tensor; a model trained from
// scratch owns everything. One owner-map lookup per vertex reconstructs any
// model regardless of how long its transfer-learning chain is.
//
// Each entry is 128 bits (64-bit model id + 32-bit vertex + padding), which
// is the paper's "at most hundreds of KB" metadata budget.
#pragma once

#include <map>
#include <vector>

#include "common/types.h"

namespace evostore::core {

using common::ModelId;
using common::SegmentKey;
using common::VertexId;

class OwnerMap {
 public:
  OwnerMap() = default;

  /// Map for a from-scratch model: every vertex owned by `self`.
  static OwnerMap self_owned(ModelId self, size_t vertex_count);

  /// Map for a derived model: vertices matched to the ancestor inherit the
  /// ancestor's owner entries (following the chain transitively, because the
  /// ancestor's map already points at original owners); all other vertices
  /// are owned by `self`.
  ///
  /// `matches` pairs (child vertex, ancestor vertex) from the LCP query.
  static OwnerMap derive(
      ModelId self, size_t vertex_count, const OwnerMap& ancestor,
      const std::vector<std::pair<VertexId, VertexId>>& matches);

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  const SegmentKey& entry(VertexId v) const { return entries_[v]; }
  void set_entry(VertexId v, SegmentKey key) { entries_[v] = key; }
  const std::vector<SegmentKey>& entries() const { return entries_; }

  /// Vertices whose owner is `m` (for a model's own map with m == self,
  /// these are the segments it physically stores).
  std::vector<VertexId> vertices_owned_by(ModelId m) const;

  /// Distinct contributing models, in first-appearance (vertex) order.
  std::vector<ModelId> contributors() const;

  /// Group entries by owner: owner -> list of (local vertex, owner vertex).
  std::map<ModelId, std::vector<std::pair<VertexId, VertexId>>> by_owner()
      const;

  /// Fraction of vertices NOT owned by `self` (shared with ancestors).
  double shared_fraction(ModelId self) const;

  /// Serialized metadata footprint: 128 bits per leaf layer.
  size_t metadata_bytes() const { return entries_.size() * 16; }

  template <class V>
  void fields(V& v) { v(entries_); }

  friend bool operator==(const OwnerMap&, const OwnerMap&) = default;

 private:
  std::vector<SegmentKey> entries_;  // indexed by local VertexId
};

}  // namespace evostore::core
