#include "core/owner_map.h"

#include <gtest/gtest.h>

#include "common/fields.h"

namespace evostore::core {
namespace {

using common::ModelId;

TEST(OwnerMap, SelfOwnedCoversEveryVertex) {
  ModelId m = ModelId::make(1, 1);
  OwnerMap map = OwnerMap::self_owned(m, 5);
  ASSERT_EQ(map.size(), 5u);
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_EQ(map.entry(v).owner, m);
    EXPECT_EQ(map.entry(v).vertex, v);
  }
  EXPECT_DOUBLE_EQ(map.shared_fraction(m), 0.0);
}

TEST(OwnerMap, DeriveInheritsMatchedEntries) {
  ModelId parent = ModelId::make(1, 1);
  ModelId child = ModelId::make(1, 2);
  OwnerMap pmap = OwnerMap::self_owned(parent, 4);
  // Child has 5 vertices; vertices 0..2 match parent vertices 0..2.
  OwnerMap cmap = OwnerMap::derive(child, 5, pmap, {{0, 0}, {1, 1}, {2, 2}});
  EXPECT_EQ(cmap.entry(0).owner, parent);
  EXPECT_EQ(cmap.entry(2).owner, parent);
  EXPECT_EQ(cmap.entry(3).owner, child);
  EXPECT_EQ(cmap.entry(4).owner, child);
  EXPECT_DOUBLE_EQ(cmap.shared_fraction(child), 3.0 / 5.0);
}

TEST(OwnerMap, ChainsCollapseToOriginalOwner) {
  // grandparent -> parent -> child; the child's entries must point directly
  // at the grandparent for tensors it inherited through the parent
  // (paper: reads consult ONE owner map regardless of chain length).
  ModelId gp = ModelId::make(1, 1);
  ModelId p = ModelId::make(1, 2);
  ModelId c = ModelId::make(1, 3);
  OwnerMap gmap = OwnerMap::self_owned(gp, 4);
  OwnerMap pmap = OwnerMap::derive(p, 4, gmap, {{0, 0}, {1, 1}});
  OwnerMap cmap = OwnerMap::derive(c, 4, pmap, {{0, 0}, {1, 1}, {2, 2}});
  EXPECT_EQ(cmap.entry(0).owner, gp);
  EXPECT_EQ(cmap.entry(1).owner, gp);
  EXPECT_EQ(cmap.entry(2).owner, p);
  EXPECT_EQ(cmap.entry(3).owner, c);
}

TEST(OwnerMap, DeriveWithVertexRenumbering) {
  // Matches may map child vertex 3 to ancestor vertex 1: the entry must
  // carry the ANCESTOR-side vertex id (that's where the segment lives).
  ModelId parent = ModelId::make(1, 1);
  ModelId child = ModelId::make(1, 2);
  OwnerMap pmap = OwnerMap::self_owned(parent, 4);
  OwnerMap cmap = OwnerMap::derive(child, 4, pmap, {{3, 1}});
  EXPECT_EQ(cmap.entry(3).owner, parent);
  EXPECT_EQ(cmap.entry(3).vertex, 1u);
}

TEST(OwnerMap, VerticesOwnedBy) {
  ModelId parent = ModelId::make(1, 1);
  ModelId child = ModelId::make(1, 2);
  OwnerMap pmap = OwnerMap::self_owned(parent, 3);
  OwnerMap cmap = OwnerMap::derive(child, 4, pmap, {{0, 0}, {2, 2}});
  EXPECT_EQ(cmap.vertices_owned_by(child), (std::vector<VertexId>{1, 3}));
  EXPECT_EQ(cmap.vertices_owned_by(parent), (std::vector<VertexId>{0, 2}));
  EXPECT_TRUE(cmap.vertices_owned_by(ModelId::make(9, 9)).empty());
}

TEST(OwnerMap, ContributorsInFirstAppearanceOrder) {
  ModelId a = ModelId::make(1, 1);
  ModelId b = ModelId::make(1, 2);
  ModelId c = ModelId::make(1, 3);
  OwnerMap map = OwnerMap::self_owned(c, 4);
  map.set_entry(1, {a, 0});
  map.set_entry(2, {b, 5});
  auto contributors = map.contributors();
  ASSERT_EQ(contributors.size(), 3u);
  EXPECT_EQ(contributors[0], c);
  EXPECT_EQ(contributors[1], a);
  EXPECT_EQ(contributors[2], b);
}

TEST(OwnerMap, ByOwnerGroupsAndKeepsPairs) {
  ModelId a = ModelId::make(1, 1);
  ModelId b = ModelId::make(1, 2);
  OwnerMap map = OwnerMap::self_owned(b, 3);
  map.set_entry(0, {a, 7});
  auto groups = map.by_owner();
  ASSERT_EQ(groups.size(), 2u);
  ASSERT_EQ(groups[a].size(), 1u);
  EXPECT_EQ(groups[a][0], (std::pair<VertexId, VertexId>{0, 7}));
  EXPECT_EQ(groups[b].size(), 2u);
}

TEST(OwnerMap, MetadataBudgetIs128BitsPerLeaf) {
  OwnerMap map = OwnerMap::self_owned(ModelId::make(1, 1), 1000);
  EXPECT_EQ(map.metadata_bytes(), 16000u);  // paper: 128 bits per leaf layer
}

TEST(OwnerMap, SerdeRoundTrip) {
  ModelId a = ModelId::make(2, 1);
  OwnerMap map = OwnerMap::self_owned(ModelId::make(2, 9), 6);
  map.set_entry(2, {a, 4});
  map.set_entry(5, {a, 0});
  common::Bytes bytes = common::encode(map);
  common::Deserializer d(bytes);
  auto out = common::decode<OwnerMap>(d);
  EXPECT_TRUE(d.finish().ok());
  EXPECT_EQ(out, map);
}

TEST(OwnerMap, EmptyMap) {
  OwnerMap map;
  EXPECT_TRUE(map.empty());
  EXPECT_TRUE(map.contributors().empty());
  EXPECT_DOUBLE_EQ(map.shared_fraction(ModelId::make(1, 1)), 0.0);
}

}  // namespace
}  // namespace evostore::core
