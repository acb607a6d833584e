#include "storage/pfs.h"

#include <gtest/gtest.h>

namespace evostore::storage {
namespace {

using common::Buffer;
using common::NodeId;
using sim::CoTask;
using sim::Simulation;

struct Env {
  Simulation sim;
  net::Fabric fabric;
  PfsConfig cfg;
  std::unique_ptr<Pfs> pfs;
  NodeId client;

  explicit Env(PfsConfig config = small_config())
      : fabric(sim, net::FabricConfig{.latency = 1e-6, .local_latency = 1e-7}),
        cfg(config) {
    client = fabric.add_node(1e9, 1e9);
    pfs = std::make_unique<Pfs>(fabric, cfg);
  }

  static PfsConfig small_config() {
    PfsConfig c;
    c.ost_count = 8;
    c.aggregate_bandwidth = 8e6;  // 1 MB/s per OST
    c.stripe_count = 4;
    c.stripe_size = 1024;
    c.mds_parallelism = 2;
    c.mds_op_seconds = 0.001;
    return c;
  }
};

common::Bytes concat(const std::vector<Buffer>& slices) {
  common::Bytes out;
  for (const Buffer& b : slices) {
    common::Bytes part = b.to_bytes();
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

TEST(Pfs, WriteReadRoundTrip) {
  Env env;
  auto task = [&]() -> CoTask<bool> {
    std::vector<Buffer> extents;
    extents.push_back(Buffer::synthetic(4096, 1));
    extents.push_back(Buffer::synthetic(2048, 2));
    auto st = co_await env.pfs->write(env.client, "/f", std::move(extents));
    EXPECT_TRUE(st.ok());
    auto r = co_await env.pfs->read(env.client, "/f");
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r->size(), 2u);
    co_return r.ok() && (*r)[0].content_equals(Buffer::synthetic(4096, 1));
  };
  EXPECT_TRUE(env.sim.run_until_complete(task()));
  EXPECT_EQ(env.pfs->stored_bytes(), 6144u);
  EXPECT_EQ(env.pfs->file_count(), 1u);
}

TEST(Pfs, ReadMissingFile) {
  Env env;
  auto task = [&]() -> CoTask<bool> {
    auto r = co_await env.pfs->read(env.client, "/nope");
    co_return r.ok();
  };
  EXPECT_FALSE(env.sim.run_until_complete(task()));
}

TEST(Pfs, OverwriteReplacesContent) {
  Env env;
  auto task = [&]() -> CoTask<size_t> {
    std::vector<Buffer> v1;
    v1.push_back(Buffer::zeros(1000));
    auto st1 = co_await env.pfs->write(env.client, "/f", std::move(v1));
    EXPECT_TRUE(st1.ok());
    std::vector<Buffer> v2;
    v2.push_back(Buffer::zeros(300));
    auto st2 = co_await env.pfs->write(env.client, "/f", std::move(v2));
    EXPECT_TRUE(st2.ok());
    co_return env.pfs->stored_bytes();
  };
  EXPECT_EQ(env.sim.run_until_complete(task()), 300u);
}

TEST(Pfs, RemoveFreesSpace) {
  Env env;
  auto task = [&]() -> CoTask<bool> {
    std::vector<Buffer> v;
    v.push_back(Buffer::zeros(500));
    auto wst = co_await env.pfs->write(env.client, "/f", std::move(v));
    EXPECT_TRUE(wst.ok());
    auto st = co_await env.pfs->remove(env.client, "/f");
    EXPECT_TRUE(st.ok());
    auto missing = co_await env.pfs->remove(env.client, "/f");
    co_return missing.ok();
  };
  EXPECT_FALSE(env.sim.run_until_complete(task()));
  EXPECT_EQ(env.pfs->stored_bytes(), 0u);
}

TEST(Pfs, ExistsChecksMetadataOnly) {
  Env env;
  auto task = [&]() -> CoTask<std::pair<bool, bool>> {
    std::vector<Buffer> v;
    v.push_back(Buffer::zeros(10));
    auto wst = co_await env.pfs->write(env.client, "/f", std::move(v));
    EXPECT_TRUE(wst.ok());
    bool has = co_await env.pfs->exists(env.client, "/f");
    bool hasnt = co_await env.pfs->exists(env.client, "/g");
    co_return std::make_pair(has, hasnt);
  };
  auto [has, hasnt] = env.sim.run_until_complete(task());
  EXPECT_TRUE(has);
  EXPECT_FALSE(hasnt);
}

TEST(Pfs, ReadRangeAssemblesAcrossExtents) {
  Env env;
  auto task = [&]() -> CoTask<bool> {
    Buffer e0 = Buffer::synthetic(100, 5);
    Buffer e1 = Buffer::synthetic(100, 6);
    common::Bytes expected;
    {
      auto b0 = e0.to_bytes();
      auto b1 = e1.to_bytes();
      expected.insert(expected.end(), b0.begin() + 90, b0.end());
      expected.insert(expected.end(), b1.begin(), b1.begin() + 20);
    }
    std::vector<Buffer> extents{e0, e1};
    auto wst = co_await env.pfs->write(env.client, "/f", std::move(extents));
    EXPECT_TRUE(wst.ok());
    auto r = co_await env.pfs->read_range(env.client, "/f", 90, 30);
    EXPECT_TRUE(r.ok());
    co_return r.ok() && concat(*r) == expected;
  };
  EXPECT_TRUE(env.sim.run_until_complete(task()));
}

TEST(Pfs, ReadRangeReturnsZeroCopyExtentSlices) {
  // Two 2 GiB synthetic extents; a 1 GiB read straddling their boundary
  // must come back as slices that generate nothing.
  Env env;
  const size_t kExtent = size_t{2} << 30;
  const size_t kLen = size_t{1} << 30;
  const size_t kOffset = kExtent - kLen / 2;
  auto task = [&]() -> CoTask<bool> {
    std::vector<Buffer> extents{Buffer::synthetic(kExtent, 11),
                                Buffer::synthetic(kExtent, 12)};
    auto wst = co_await env.pfs->write(env.client, "/big", std::move(extents));
    EXPECT_TRUE(wst.ok());
    auto r = co_await env.pfs->read_range(env.client, "/big", kOffset, kLen);
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return false;
    size_t total = 0;
    for (const Buffer& b : *r) {
      EXPECT_EQ(b.resident_bytes(), 0u);
      total += b.size();
    }
    EXPECT_EQ(total, kLen);
    EXPECT_EQ(r->size(), 2u);
    if (r->size() != 2) co_return false;
    // 64 bytes on each side of the boundary match the source streams.
    common::Bytes before(64);
    common::Bytes after(64);
    (*r)[0].read((*r)[0].size() - 64, before);
    (*r)[1].read(0, after);
    for (size_t i = 0; i < 64; ++i) {
      EXPECT_EQ(before[i], Buffer::synthetic_byte(11, kExtent - 64 + i)) << i;
      EXPECT_EQ(after[i], Buffer::synthetic_byte(12, i)) << i;
    }
    co_return true;
  };
  EXPECT_TRUE(env.sim.run_until_complete(task()));
}

TEST(Pfs, ReadRangeSlicesOutliveTheFile) {
  Env env;
  common::Bytes content(300);
  for (size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<std::byte>(i * 7);
  }
  auto task = [&]() -> CoTask<std::vector<Buffer>> {
    std::vector<Buffer> extents{
        Buffer::copy(std::span(content).first(100)),
        Buffer::copy(std::span(content).subspan(100))};
    auto wst = co_await env.pfs->write(env.client, "/f", std::move(extents));
    EXPECT_TRUE(wst.ok());
    auto r = co_await env.pfs->read_range(env.client, "/f", 50, 200);
    EXPECT_TRUE(r.ok());
    auto st = co_await env.pfs->remove(env.client, "/f");
    EXPECT_TRUE(st.ok());
    co_return r.ok() ? std::move(r).value() : std::vector<Buffer>{};
  };
  std::vector<Buffer> slices = env.sim.run_until_complete(task());
  EXPECT_EQ(env.pfs->file_count(), 0u);
  EXPECT_EQ(concat(slices),
            common::Bytes(content.begin() + 50, content.begin() + 250));
}

TEST(Pfs, ReadRangePastEndFails) {
  Env env;
  auto task = [&]() -> CoTask<bool> {
    std::vector<Buffer> v;
    v.push_back(Buffer::zeros(100));
    auto wst = co_await env.pfs->write(env.client, "/f", std::move(v));
    EXPECT_TRUE(wst.ok());
    auto r = co_await env.pfs->read_range(env.client, "/f", 90, 20);
    co_return r.ok();
  };
  EXPECT_FALSE(env.sim.run_until_complete(task()));
}

TEST(Pfs, WriteTimeScalesWithStriping) {
  // A file striped over 4 OSTs moves ~4x faster than a single-stripe file.
  Env env;
  double t_striped = 0;
  auto task = [&]() -> CoTask<void> {
    std::vector<Buffer> v;
    v.push_back(Buffer::synthetic(400 * 1024, 1));  // 400 KB >> stripe_size
    double t0 = env.sim.now();
    auto st = co_await env.pfs->write(env.client, "/big", std::move(v));
    EXPECT_TRUE(st.ok());
    t_striped = env.sim.now() - t0;
  };
  env.sim.run_until_complete(task());
  // 400 KB over 4 OSTs x 1 MB/s = ~0.1 s (+ mds + latency).
  EXPECT_NEAR(t_striped, 0.1, 0.01);
}

TEST(Pfs, ConcurrentWritersSaturateOsts) {
  Env env;
  // 16 writers, 8 OSTs at 1 MB/s each -> aggregate 8 MB/s.
  std::vector<NodeId> clients;
  for (int i = 0; i < 16; ++i) clients.push_back(env.fabric.add_node(1e9, 1e9));
  auto writer = [&](NodeId c, int i) -> CoTask<void> {
    std::vector<Buffer> v;
    v.push_back(Buffer::synthetic(100 * 1024, static_cast<uint64_t>(i)));
    auto st = co_await env.pfs->write(c, "/f" + std::to_string(i), std::move(v));
    EXPECT_TRUE(st.ok());
  };
  std::vector<sim::Future<void>> fs;
  for (int i = 0; i < 16; ++i) fs.push_back(env.sim.spawn(writer(clients[i], i)));
  env.sim.run();
  // 16 x 100 KB = 1.6 MB over 8 MB/s aggregate = 0.2s lower bound; striping
  // overlap makes it close to that.
  EXPECT_GT(env.sim.now(), 0.19);
  EXPECT_LT(env.sim.now(), 0.45);
}

TEST(Pfs, MdsQueueSerializesMetadataBursts) {
  Env env;  // mds_parallelism = 2, 1ms per op
  auto toucher = [&](int i) -> CoTask<void> {
    co_await env.pfs->exists(env.client, "/f" + std::to_string(i));
  };
  std::vector<sim::Future<void>> fs;
  for (int i = 0; i < 10; ++i) fs.push_back(env.sim.spawn(toucher(i)));
  env.sim.run();
  // 10 ops, 2 at a time, 1 ms each -> ~5 ms.
  EXPECT_NEAR(env.sim.now(), 0.005, 0.001);
  EXPECT_EQ(env.pfs->mds_ops(), 10u);
}

}  // namespace
}  // namespace evostore::storage
