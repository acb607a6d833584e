#include "core/owner_map.h"

#include <algorithm>

namespace evostore::core {

OwnerMap OwnerMap::self_owned(ModelId self, size_t vertex_count) {
  OwnerMap m;
  m.entries_.reserve(vertex_count);
  for (VertexId v = 0; v < vertex_count; ++v) {
    m.entries_.push_back(SegmentKey{self, v});
  }
  return m;
}

OwnerMap OwnerMap::derive(
    ModelId self, size_t vertex_count, const OwnerMap& ancestor,
    const std::vector<std::pair<VertexId, VertexId>>& matches) {
  OwnerMap m = self_owned(self, vertex_count);
  for (auto [child_v, ancestor_v] : matches) {
    // The ancestor's entry already points at the ORIGINAL owner, so chains
    // collapse to a single indirection (the paper's O(1)-in-chain-length
    // read property).
    m.entries_[child_v] = ancestor.entry(ancestor_v);
  }
  return m;
}

std::vector<VertexId> OwnerMap::vertices_owned_by(ModelId owner) const {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < entries_.size(); ++v) {
    if (entries_[v].owner == owner) out.push_back(v);
  }
  return out;
}

std::vector<ModelId> OwnerMap::contributors() const {
  std::vector<ModelId> out;
  for (const auto& e : entries_) {
    if (std::find(out.begin(), out.end(), e.owner) == out.end()) {
      out.push_back(e.owner);
    }
  }
  return out;
}

std::map<ModelId, std::vector<std::pair<VertexId, VertexId>>>
OwnerMap::by_owner() const {
  std::map<ModelId, std::vector<std::pair<VertexId, VertexId>>> out;
  for (VertexId v = 0; v < entries_.size(); ++v) {
    out[entries_[v].owner].emplace_back(v, entries_[v].vertex);
  }
  return out;
}

double OwnerMap::shared_fraction(ModelId self) const {
  if (entries_.empty()) return 0.0;
  size_t shared = 0;
  for (const auto& e : entries_) {
    if (e.owner != self) ++shared;
  }
  return static_cast<double>(shared) / static_cast<double>(entries_.size());
}

}  // namespace evostore::core
