// Longest common prefix over architecture graphs (paper §4.2, Algorithm 1).
//
// The LCP of candidate graph G against ancestor graph A is the largest set
// of G-vertices V such that every v in V (1) has a counterpart in A with an
// identical leaf-layer configuration, and (2) has ALL of its predecessors in
// V (recursively rooted at the input layer). These are exactly the layers
// that can be transferred and frozen.
//
// The implementation follows Algorithm 1's frontier expansion with visit
// counters, extended with an explicit vertex correspondence: when a G-vertex
// becomes eligible, it is bound to the smallest-id unmatched A-successor
// candidate that every matched predecessor agrees on and whose in-degree
// equals the G-vertex's (the paper's max(in_degree) guard — a vertex with a
// predecessor outside the prefix in either graph can never be eligible).
//
// One run compares a query against ONE stored model; a provider answering
// `find_ancestor` scans the local models it owns this way and keeps the best
// by `lcp_outranks`. That scan is the only serving path (a prefix trie is
// exact only for linear chains, DESIGN.md §16), so this header is also the
// test oracle: brute-force `longest_common_prefix` over a catalog must
// reproduce every provider answer.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "model/arch_graph.h"

namespace evostore::core {

using common::VertexId;
using model::ArchGraph;

/// The reduce order of a collective LCP query, shared by the provider scans
/// and the client reduce: a candidate (prefix length, quality, id) beats the
/// incumbent by a longer prefix, then a higher quality, then a lower id.
inline bool lcp_outranks(size_t len, double quality, common::ModelId id,
                         size_t best_len, double best_quality,
                         common::ModelId best_id) {
  if (len != best_len) return len > best_len;
  if (quality != best_quality) return quality > best_quality;
  return id < best_id;
}

struct LcpResult {
  /// (G vertex, A vertex) pairs forming the prefix; empty if even the roots
  /// differ. Sorted by G vertex id.
  std::vector<std::pair<VertexId, VertexId>> matches;

  size_t length() const { return matches.size(); }

  /// Total parameter bytes of the prefix in `g` (the transferable payload).
  size_t prefix_param_bytes(const ArchGraph& g) const;

  /// Vertices of `g` NOT in the prefix (the segments a derived model must
  /// store itself).
  std::vector<VertexId> unmatched_g_vertices(const ArchGraph& g) const;
};

/// Compute the longest common prefix of `g` against ancestor `a`.
LcpResult longest_common_prefix(const ArchGraph& g, const ArchGraph& a);

/// Number of vertex visits Algorithm 1 performs (the work the provider-side
/// cost model charges for; exposed for benchmarks and tests).
struct LcpCost {
  uint64_t vertex_visits = 0;
};
LcpResult longest_common_prefix(const ArchGraph& g, const ArchGraph& a,
                                LcpCost* cost);

/// Reusable scratch space for catalog scans: a provider evaluating one query
/// graph against thousands of stored ancestors avoids re-allocating the
/// per-call vectors. Its arrays only grow (to the largest graphs seen), and
/// each run resets only the entries the previous run touched, so a pair that
/// diverges after a few vertices costs a few vertex visits, not a pass over
/// the query. Not thread-safe; one workspace per scanning context.
class LcpWorkspace {
 public:
  LcpResult run(const ArchGraph& g, const ArchGraph& a, LcpCost* cost);

  /// Prefix length of `g` against `a` without materializing the pairs: a
  /// catalog scan calls this per stored model and copies the pairs out with
  /// `last_matches` only for the models that beat its current best.
  size_t prefix_length(const ArchGraph& g, const ArchGraph& a, LcpCost* cost);
  /// The (G vertex, A vertex) pairs of the last `prefix_length` call, sorted
  /// by G vertex (empty when it returned 0).
  void last_matches(std::vector<std::pair<VertexId, VertexId>>* out) const;

 private:
  friend LcpResult longest_common_prefix(const ArchGraph&, const ArchGraph&,
                                         LcpCost*);
  /// Return every entry the last run touched to its initial value, then
  /// grow the arrays to hold a `g_size`-vertex query and a `a_size`-vertex
  /// ancestor.
  void reset(size_t g_size, size_t a_size);

  // Indexed by G vertex.
  std::vector<VertexId> match_;
  std::vector<uint32_t> visits_;
  std::vector<uint8_t> proposed_;
  std::vector<std::vector<VertexId>> candidates_;
  // Indexed by A vertex.
  std::vector<uint8_t> a_used_;
  // The matched G vertices in match order; with match_ they name every
  // A vertex whose a_used_ the run set.
  std::vector<VertexId> frontier_;
  // The G vertices whose visits_ / proposed_ the run set.
  std::vector<VertexId> proposed_list_;
  std::vector<VertexId> cand_here_;
  std::vector<VertexId> merged_;
  size_t g_size_ = 0;  // query size of the last run (0: roots differed)
};

/// One stored model a catalog scan compares the query against. `graph`
/// points into the caller's catalog and must outlive the scan.
struct LcpCandidate {
  common::ModelId id;
  const ArchGraph* graph = nullptr;
  double quality = 0;
};

/// The winner of one catalog scan under `lcp_outranks` (found false when no
/// candidate shares even the query's root).
struct LcpBest {
  bool found = false;
  common::ModelId id;
  double quality = 0;
  std::vector<std::pair<VertexId, VertexId>> matches;
  size_t length() const { return matches.size(); }
};

/// The map step of a collective LCP query (paper §4.2): Algorithm 1 of `g`
/// against every candidate, reduced by `lcp_outranks`. The pairs are copied
/// out of `ws` only for a candidate that beats the best so far. Adds the
/// visits to `cost` (may be null).
LcpBest scan_candidates(const ArchGraph& g,
                        const std::vector<LcpCandidate>& candidates,
                        LcpWorkspace& ws, LcpCost* cost);

}  // namespace evostore::core
