// Compact flattened architecture graphs (paper §4.2).
//
// Flattening recursively expands all submodels of a nested `Architecture`
// into a single DAG of leaf layers, then assigns unique vertex ids in
// deterministic BFS order from the input root. The result is the unit the
// repository stores, hashes, LCP-matches, and builds owner maps over.
#pragma once

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "common/types.h"
#include "model/architecture.h"

namespace evostore::model {

using common::VertexId;

class ArchGraph {
 public:
  ArchGraph() = default;

  /// Flatten a validated nested architecture. Fails if validation fails.
  static common::Result<ArchGraph> flatten(const Architecture& arch);

  size_t size() const { return defs_.size(); }
  bool empty() const { return defs_.empty(); }
  VertexId root() const { return 0; }

  const LayerDef& def(VertexId v) const { return defs_[v]; }
  /// Canonical configuration hash of vertex v's leaf layer.
  const common::Hash128& signature(VertexId v) const { return sigs_[v]; }

  const std::vector<VertexId>& out_edges(VertexId v) const { return out_[v]; }
  uint32_t in_degree(VertexId v) const { return in_degree_[v]; }
  size_t edge_count() const;

  /// Parameter bytes of one vertex / of the whole model.
  size_t param_bytes(VertexId v, DType dtype = DType::kF32) const {
    return defs_[v].param_bytes(dtype);
  }
  size_t total_param_bytes(DType dtype = DType::kF32) const;

  /// Identity hash of the whole graph (structure + layer configs).
  const common::Hash128& graph_hash() const { return graph_hash_; }

  /// The layer defs, then one adjacency list per vertex (no count of their
  /// own: there are exactly size() of them). A decoded edge target outside
  /// the vertex range fails the stream and leaves the graph empty.
  template <class V>
  void fields(V& v) {
    v(defs_);
    if constexpr (V::kDecoding) out_.assign(defs_.size(), {});
    for (auto& adj : out_) v(adj);
    if constexpr (V::kDecoding) {
      if (edges_in_range()) {
        finalize();
      } else {
        v.corrupt("edge target out of range");
        *this = ArchGraph();
      }
    }
  }

  /// Construct directly from flat parts (JSON import and tests).
  static common::Result<ArchGraph> from_parts(
      std::vector<LayerDef> defs,
      std::vector<std::pair<VertexId, VertexId>> edges);

 private:
  void finalize();  // compute sigs, in-degrees, graph hash
  bool edges_in_range() const;

  std::vector<LayerDef> defs_;
  std::vector<common::Hash128> sigs_;
  std::vector<std::vector<VertexId>> out_;
  std::vector<uint32_t> in_degree_;
  common::Hash128 graph_hash_;
};

}  // namespace evostore::model
