#include "core/lcp.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "workload/deepspace.h"

namespace evostore::core {
namespace {

using model::ArchGraph;
using model::make_activation;
using model::make_add;
using model::make_attention;
using model::make_chain;
using model::make_dense;
using model::make_input;
using model::make_layer_norm;
using model::make_output;

ArchGraph chain(std::vector<model::LayerDef> defs) {
  auto g = ArchGraph::flatten(make_chain(std::move(defs)));
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(Lcp, IdenticalChainsMatchFully) {
  auto g = chain({make_input(8), make_dense(8, 16), make_dense(16, 4)});
  auto r = longest_common_prefix(g, g);
  EXPECT_EQ(r.length(), 3u);
  for (auto [gv, av] : r.matches) EXPECT_EQ(gv, av);
}

TEST(Lcp, DifferentRootsNoMatch) {
  auto g = chain({make_input(8), make_dense(8, 8)});
  auto a = chain({make_input(9), make_dense(8, 8)});
  EXPECT_EQ(longest_common_prefix(g, a).length(), 0u);
}

TEST(Lcp, PrefixStopsAtFirstDivergence) {
  auto g = chain({make_input(8), make_dense(8, 16), make_dense(16, 32),
                  make_dense(32, 4)});
  auto a = chain({make_input(8), make_dense(8, 16), make_dense(16, 64),
                  make_dense(64, 4)});
  auto r = longest_common_prefix(g, a);
  EXPECT_EQ(r.length(), 2u);  // input + first dense
}

TEST(Lcp, DivergenceBlocksDownstreamEvenIfConfigsMatch) {
  // Vertex 3 has identical config in both, but its predecessor differs, so
  // the recursive prefix definition excludes it.
  auto g = chain({make_input(8), make_dense(8, 16), make_dense(16, 16),
                  make_layer_norm(16)});
  auto a = chain({make_input(8), make_dense(8, 16), make_dense(16, 17),
                  make_layer_norm(16)});
  auto r = longest_common_prefix(g, a);
  EXPECT_EQ(r.length(), 2u);
}

TEST(Lcp, ShorterAncestorLimitsPrefix) {
  auto g = chain({make_input(8), make_dense(8, 8), make_dense(8, 8),
                  make_dense(8, 8)});
  auto a = chain({make_input(8), make_dense(8, 8)});
  // Identical configs chain: greedy matching walks as deep as A allows.
  auto r = longest_common_prefix(g, a);
  EXPECT_EQ(r.length(), 2u);
}

TEST(Lcp, PaperFigure2Scenario) {
  // Grandparent/parent share {1,2,3}; parent/child share {1,2,3,4,5}.
  // We model layers by distinct dense widths.
  auto grandparent = chain({make_input(4), make_dense(4, 10), make_dense(10, 20),
                            make_dense(20, 31), make_dense(31, 41)});
  auto parent = chain({make_input(4), make_dense(4, 10), make_dense(10, 20),
                       make_dense(20, 32), make_dense(32, 42)});
  auto child = chain({make_input(4), make_dense(4, 10), make_dense(10, 20),
                      make_dense(20, 32), make_dense(32, 43)});
  EXPECT_EQ(longest_common_prefix(parent, grandparent).length(), 3u);
  EXPECT_EQ(longest_common_prefix(child, parent).length(), 4u);
  EXPECT_EQ(longest_common_prefix(child, grandparent).length(), 3u);
}

ArchGraph residual_graph(int64_t attn_width, bool mutate_tail) {
  model::Architecture arch;
  auto in = arch.add_layer(make_input(16));
  auto sub = std::make_shared<model::Architecture>();
  auto ln = sub->add_layer(make_layer_norm(16));
  auto at = sub->add_layer(make_attention(attn_width, 2));
  sub->connect(ln, at);
  auto block = arch.add_submodel(std::move(sub));
  auto add = arch.add_layer(make_add());
  arch.connect(in, block);
  arch.connect(block, add);
  arch.connect(in, add);
  auto out = arch.add_layer(make_output(16, mutate_tail ? 3 : 2));
  arch.connect(add, out);
  auto g = ArchGraph::flatten(arch);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(Lcp, BranchingGraphFullMatch) {
  auto g = residual_graph(16, false);
  auto r = longest_common_prefix(g, g);
  EXPECT_EQ(r.length(), g.size());
}

TEST(Lcp, BranchingGraphTailMutation) {
  auto g = residual_graph(16, true);
  auto a = residual_graph(16, false);
  auto r = longest_common_prefix(g, a);
  // Everything except the mutated output layer matches.
  EXPECT_EQ(r.length(), g.size() - 1);
}

TEST(Lcp, JoinVertexRequiresAllPredecessorsInPrefix) {
  auto g = residual_graph(16, false);
  auto a = residual_graph(24, false);  // attention differs inside the branch
  auto r = longest_common_prefix(g, a);
  // input + layer_norm match; attention differs; Add has a predecessor
  // outside the prefix, so it and the output are excluded.
  EXPECT_EQ(r.length(), 2u);
}

TEST(Lcp, SubmodelDecompositionFindsLeafMatches) {
  // Same leaf layers, one side wrapped in a submodel: flattening must make
  // them equivalent (paper §4.2's motivating point).
  auto plain = chain({make_input(8), make_dense(8, 16), make_activation(1),
                      make_dense(16, 8)});
  model::Architecture nested;
  auto in = nested.add_layer(make_input(8));
  auto sub = std::make_shared<model::Architecture>();
  auto d1 = sub->add_layer(make_dense(8, 16));
  auto ac = sub->add_layer(make_activation(1));
  sub->connect(d1, ac);
  auto block = nested.add_submodel(std::move(sub));
  auto d2 = nested.add_layer(make_dense(16, 8));
  nested.connect(in, block);
  nested.connect(block, d2);
  auto nested_g = model::ArchGraph::flatten(nested);
  ASSERT_TRUE(nested_g.ok());
  auto r = longest_common_prefix(plain, nested_g.value());
  EXPECT_EQ(r.length(), 4u);
}

TEST(Lcp, AmbiguousIdenticalSuccessorsResolveDeterministically) {
  // Diamond with two identical branches.
  auto build = [] {
    model::Architecture arch;
    auto in = arch.add_layer(make_input(8));
    auto l = arch.add_layer(make_dense(8, 8));
    auto r = arch.add_layer(make_dense(8, 8));
    auto add = arch.add_layer(make_add());
    arch.connect(in, l);
    arch.connect(in, r);
    arch.connect(l, add);
    arch.connect(r, add);
    auto g = model::ArchGraph::flatten(arch);
    EXPECT_TRUE(g.ok());
    return std::move(g).value();
  };
  auto g = build();
  auto a = build();
  auto r1 = longest_common_prefix(g, a);
  auto r2 = longest_common_prefix(g, a);
  EXPECT_EQ(r1.length(), 4u);
  EXPECT_EQ(r1.matches, r2.matches);
}

TEST(Lcp, PrefixParamBytesAndUnmatched) {
  auto g = chain({make_input(8), make_dense(8, 8), make_dense(8, 9)});
  auto a = chain({make_input(8), make_dense(8, 8), make_dense(8, 10)});
  auto r = longest_common_prefix(g, a);
  ASSERT_EQ(r.length(), 2u);
  EXPECT_EQ(r.prefix_param_bytes(g), g.param_bytes(1));
  EXPECT_EQ(r.unmatched_g_vertices(g), (std::vector<VertexId>{2}));
}

TEST(Lcp, CostCountsVisits) {
  auto g = chain({make_input(8), make_dense(8, 8), make_dense(8, 8)});
  LcpCost cost;
  (void)longest_common_prefix(g, g, &cost);
  EXPECT_GT(cost.vertex_visits, 0u);
  LcpCost mismatch_cost;
  auto other = chain({make_input(9)});
  (void)longest_common_prefix(g, other, &mismatch_cost);
  EXPECT_EQ(mismatch_cost.vertex_visits, 1u);  // root check only
}

TEST(Lcp, EmptyGraphs) {
  ArchGraph empty;
  auto g = chain({make_input(8)});
  EXPECT_EQ(longest_common_prefix(empty, g).length(), 0u);
  EXPECT_EQ(longest_common_prefix(g, empty).length(), 0u);
}

TEST(Lcp, WorkspaceReuseMatchesOneShot) {
  workload::DeepSpace space;
  common::Xoshiro256 rng(7);
  LcpWorkspace ws;
  for (int i = 0; i < 50; ++i) {
    auto s1 = space.random(rng);
    auto s2 = space.mutate(s1, rng);
    auto g1 = space.decode_graph(s1);
    auto g2 = space.decode_graph(s2);
    auto fresh = longest_common_prefix(g1, g2);
    auto reused = ws.run(g1, g2, nullptr);
    EXPECT_EQ(fresh.matches, reused.matches) << "iteration " << i;
  }
}

TEST(Lcp, MutatedDeepSpaceGraphSharesPrefix) {
  workload::DeepSpace space;
  common::Xoshiro256 rng(21);
  int with_prefix = 0;
  for (int i = 0; i < 40; ++i) {
    auto s = space.random(rng);
    auto m = space.mutate(s, rng);
    auto g = space.decode_graph(s);
    auto gm = space.decode_graph(m);
    auto r = longest_common_prefix(gm, g);
    EXPECT_LE(r.length(), gm.size());
    if (r.length() >= 2) ++with_prefix;
  }
  // Most single-choice mutations preserve a nontrivial prefix.
  EXPECT_GT(with_prefix, 20);
}

TEST(Lcp, ReusedWorkspaceLengthMatchesFreshRun) {
  // The catalog scan reuses one workspace and asks only for the length,
  // copying the pairs out for the models that beat its best: every answer
  // and visit count must equal a fresh full run, including right after a
  // root mismatch (whose call leaves no pairs behind).
  workload::DeepSpace space;
  common::Xoshiro256 rng(23);
  auto query = space.decode_graph(space.random(rng));
  auto other_root = chain({make_input(3), make_dense(3, 8)});
  LcpWorkspace ws;
  std::vector<std::pair<common::VertexId, common::VertexId>> pairs;
  for (int i = 0; i < 60; ++i) {
    auto a = i % 7 == 3 ? other_root : space.decode_graph(space.random(rng));
    LcpCost fresh_cost;
    LcpCost reused_cost;
    LcpResult fresh = longest_common_prefix(query, a, &fresh_cost);
    EXPECT_EQ(ws.prefix_length(query, a, &reused_cost), fresh.length())
        << "iteration " << i;
    ws.last_matches(&pairs);
    EXPECT_EQ(pairs, fresh.matches) << "iteration " << i;
    EXPECT_EQ(reused_cost.vertex_visits, fresh_cost.vertex_visits)
        << "iteration " << i;
  }
}

TEST(Lcp, ReusedWorkspaceAcrossQueriesOfDifferentSizes) {
  // A provider keeps one workspace across every query it serves, so one
  // workspace must stay exact as query and ancestor sizes change in both
  // directions: its arrays only grow, and each run resets only what the
  // previous run touched. Interleave small and large DeepSpace graphs, a
  // long chain on the same input layer, and a graph whose root differs
  // from all of them, and compare every ordered pair against a fresh run.
  workload::DeepSpace small(workload::DeepSpaceConfig{.min_cells = 1,
                                                      .max_cells = 3});
  workload::DeepSpace large(workload::DeepSpaceConfig{.min_cells = 14,
                                                      .max_cells = 20});
  common::Xoshiro256 rng(29);
  std::vector<ArchGraph> graphs;
  for (int i = 0; i < 8; ++i) {
    const workload::DeepSpace& space = i % 2 == 0 ? large : small;
    auto s = space.random(rng);
    graphs.push_back(space.decode_graph(s));
    graphs.push_back(space.decode_graph(space.mutate(s, rng)));
    if (i == 3) {
      std::vector<model::LayerDef> defs{make_input(128)};
      for (int l = 0; l < 60; ++l) defs.push_back(make_dense(128, 128));
      graphs.push_back(chain(std::move(defs)));
    }
    if (i == 5) graphs.push_back(chain({make_input(3), make_dense(3, 8)}));
  }
  LcpWorkspace ws;
  std::vector<std::pair<common::VertexId, common::VertexId>> pairs;
  size_t after_mismatch = 0;
  size_t after_larger = 0;
  bool last_mismatched = false;
  size_t last_size = 0;
  const size_t n = graphs.size();
  for (size_t i = 0; i < n * n; ++i) {
    // Stride through the pairs so consecutive runs change both graphs.
    const ArchGraph& g = graphs[i % n];
    const ArchGraph& a = graphs[(i * 7 + i / n) % n];
    LcpCost fresh_cost;
    LcpCost reused_cost;
    LcpResult fresh = longest_common_prefix(g, a, &fresh_cost);
    size_t len = ws.prefix_length(g, a, &reused_cost);
    ASSERT_EQ(len, fresh.length()) << "pair " << i;
    ws.last_matches(&pairs);
    ASSERT_EQ(pairs, fresh.matches) << "pair " << i;
    ASSERT_EQ(reused_cost.vertex_visits, fresh_cost.vertex_visits)
        << "pair " << i;
    if (len > 0 && last_mismatched) ++after_mismatch;
    if (len > 0 && last_size > g.size()) ++after_larger;
    last_mismatched = len == 0;
    last_size = g.size();
  }
  EXPECT_GT(after_mismatch, 0u);
  EXPECT_GT(after_larger, 0u);
}

TEST(Lcp, ScanCandidatesMatchesBruteForceReduce) {
  // The provider's scan step: the winner by (length, quality, lower id)
  // over every candidate, with the winner's pairs from a fresh run.
  workload::DeepSpace space;
  common::Xoshiro256 rng(31);
  std::vector<ArchGraph> catalog;
  for (int i = 0; i < 40; ++i) {
    auto s = space.random(rng);
    catalog.push_back(space.decode_graph(s));
    // Duplicates tie on length and quality: only the lower id may win.
    if (i % 5 == 0) catalog.push_back(catalog.back());
  }
  std::vector<LcpCandidate> rows;
  for (size_t i = 0; i < catalog.size(); ++i) {
    // Ids descend as i grows, so the lower id is the later duplicate.
    rows.push_back({common::ModelId::make(1, static_cast<uint32_t>(1000 - i)),
                    &catalog[i], static_cast<double>(i / 2 % 4) / 4.0});
  }
  LcpWorkspace ws;
  for (int q = 0; q < 20; ++q) {
    ArchGraph query = space.decode_graph(space.random(rng));
    const LcpCandidate* want = nullptr;
    LcpResult want_r;
    for (const LcpCandidate& c : rows) {
      LcpResult r = longest_common_prefix(query, *c.graph);
      if (r.length() == 0) continue;
      if (want == nullptr || lcp_outranks(r.length(), c.quality, c.id,
                                          want_r.length(), want->quality,
                                          want->id)) {
        want = &c;
        want_r = std::move(r);
      }
    }
    LcpCost cost;
    LcpBest got = scan_candidates(query, rows, ws, &cost);
    ASSERT_EQ(got.found, want != nullptr) << "query " << q;
    EXPECT_GT(cost.vertex_visits, 0u);
    if (want == nullptr) continue;
    EXPECT_EQ(got.id, want->id) << "query " << q;
    EXPECT_EQ(got.quality, want->quality) << "query " << q;
    EXPECT_EQ(got.matches, want_r.matches) << "query " << q;
  }
}

TEST(Lcp, OutranksOrdersByLengthThenQualityThenLowerId) {
  const common::ModelId lo = common::ModelId::make(1, 1);
  const common::ModelId hi = common::ModelId::make(1, 2);
  EXPECT_TRUE(lcp_outranks(5, 0.1, hi, 4, 0.9, lo));
  EXPECT_FALSE(lcp_outranks(4, 0.9, lo, 5, 0.1, hi));
  EXPECT_TRUE(lcp_outranks(5, 0.6, hi, 5, 0.5, lo));
  EXPECT_TRUE(lcp_outranks(5, 0.5, lo, 5, 0.5, hi));
  EXPECT_FALSE(lcp_outranks(5, 0.5, hi, 5, 0.5, lo));
  EXPECT_FALSE(lcp_outranks(5, 0.5, lo, 5, 0.5, lo));
}

}  // namespace
}  // namespace evostore::core
