#include "net/rpc.h"

#include <gtest/gtest.h>

namespace evostore::net {
namespace {

using common::Bytes;
using common::Deserializer;
using common::Serializer;
using sim::CoTask;
using sim::Simulation;

struct Env {
  Simulation sim;
  Fabric fabric;
  RpcSystem rpc;
  NodeId a;
  NodeId b;

  Env()
      : fabric(sim, FabricConfig{.latency = 0.001, .local_latency = 0.0001}),
        rpc(fabric) {
    a = fabric.add_node(1000.0, 1000.0);
    b = fabric.add_node(1000.0, 1000.0);
  }
};

Bytes to_bytes(const std::string& s) {
  Serializer ser;
  ser.str(s);
  return std::move(ser).take();
}

std::string from_bytes(const Bytes& b) {
  Deserializer d(b);
  return d.str();
}

TEST(Rpc, EchoHandler) {
  Env env;
  env.rpc.register_handler(env.b, "echo", [](Bytes req) -> CoTask<Bytes> {
    co_return req;
  });
  auto task = [&]() -> CoTask<std::string> {
    auto r = co_await env.rpc.call(env.a, env.b, "echo", to_bytes("ping"));
    EXPECT_TRUE(r.ok());
    co_return from_bytes(r.value());
  };
  EXPECT_EQ(env.sim.run_until_complete(task()), "ping");
  EXPECT_EQ(env.rpc.stats().calls, 1u);
}

TEST(Rpc, MissingHandlerIsUnimplemented) {
  // Unimplemented, not NotFound: callers must be able to tell "no such
  // handler" apart from a provider legitimately answering NotFound.
  Env env;
  auto task = [&]() -> CoTask<common::Status> {
    auto r = co_await env.rpc.call(env.a, env.b, "nope", Bytes{});
    co_return r.status();
  };
  auto st = env.sim.run_until_complete(task());
  EXPECT_EQ(st.code(), common::ErrorCode::kUnimplemented);
  EXPECT_FALSE(common::is_retryable(st.code()));
}

TEST(Rpc, DeadlineExceededWhenHandlerTooSlow) {
  Env env;
  env.rpc.register_handler(env.b, "slow", [sim = &env.sim](Bytes) -> CoTask<Bytes> {
    co_await sim->delay(10.0);
    co_return Bytes{};
  });
  auto task = [&]() -> CoTask<common::Status> {
    auto r = co_await env.rpc.call(env.a, env.b, "slow", Bytes{},
                                   CallOptions{.timeout = 0.5});
    co_return r.status();
  };
  auto st = env.sim.run_until_complete(task());
  EXPECT_EQ(st.code(), common::ErrorCode::kDeadlineExceeded);
  EXPECT_TRUE(common::is_retryable(st.code()));
  EXPECT_EQ(env.rpc.stats().deadline_exceeded, 1u);
}

TEST(Rpc, DeadlineFiresAtExactlyTimeoutSeconds) {
  Env env;
  env.rpc.register_handler(env.b, "slow", [sim = &env.sim](Bytes) -> CoTask<Bytes> {
    co_await sim->delay(10.0);
    co_return Bytes{};
  });
  auto task = [&]() -> CoTask<double> {
    auto r = co_await env.rpc.call(env.a, env.b, "slow", Bytes{},
                                   CallOptions{.timeout = 0.25});
    EXPECT_FALSE(r.ok());
    co_return env.sim.now();
  };
  EXPECT_NEAR(env.sim.run_until_complete(task()), 0.25, 1e-9);
}

TEST(Rpc, FastCallUnaffectedByDeadline) {
  Env env;
  env.rpc.register_handler(env.b, "echo", [](Bytes req) -> CoTask<Bytes> {
    co_return req;
  });
  auto task = [&]() -> CoTask<std::string> {
    auto r = co_await env.rpc.call(env.a, env.b, "echo", to_bytes("hi"),
                                   CallOptions{.timeout = 5.0});
    EXPECT_TRUE(r.ok());
    co_return from_bytes(r.value());
  };
  EXPECT_EQ(env.sim.run_until_complete(task()), "hi");
  EXPECT_EQ(env.rpc.stats().deadline_exceeded, 0u);
}

TEST(Rpc, DefaultTimeoutAppliesWhenOptionsLeaveZero) {
  Env env;
  env.rpc.set_default_timeout(0.1);
  env.rpc.register_handler(env.b, "slow", [sim = &env.sim](Bytes) -> CoTask<Bytes> {
    co_await sim->delay(10.0);
    co_return Bytes{};
  });
  auto task = [&]() -> CoTask<common::Status> {
    auto r = co_await env.rpc.call(env.a, env.b, "slow", Bytes{});
    co_return r.status();
  };
  EXPECT_EQ(env.sim.run_until_complete(task()).code(),
            common::ErrorCode::kDeadlineExceeded);
}

TEST(Rpc, NegativeTimeoutDisablesDefaultDeadline) {
  Env env;
  env.rpc.set_default_timeout(0.1);
  env.rpc.register_handler(env.b, "slow", [sim = &env.sim](Bytes) -> CoTask<Bytes> {
    co_await sim->delay(1.0);
    co_return Bytes{};
  });
  auto task = [&]() -> CoTask<bool> {
    auto r = co_await env.rpc.call(env.a, env.b, "slow", Bytes{},
                                   CallOptions{.timeout = -1});
    co_return r.ok();
  };
  EXPECT_TRUE(env.sim.run_until_complete(task()));
}

struct Probe {
  uint64_t n = 1;
  std::string s;
  template <class V>
  void fields(V& v) { v(n, s); }
};

TEST(Rpc, TypedCallAnnotatesMalformedResponse) {
  Env env;
  env.rpc.register_handler(env.b, "meta", [](Bytes) -> CoTask<Bytes> {
    co_return Bytes{0x01};  // too short for any real response struct
  });
  auto task = [&]() -> CoTask<common::Status> {
    Probe probe;
    auto r = co_await typed_call<Probe>(&env.rpc, env.a, env.b, "meta", probe);
    co_return r.status();
  };
  auto st = env.sim.run_until_complete(task());
  EXPECT_FALSE(st.ok());
  // The failure must be attributable: method and target node in the message.
  EXPECT_NE(st.message().find("'meta'"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find(env.fabric.node_name(env.b)), std::string::npos)
      << st.message();
}

TEST(Rpc, HandlerReplacement) {
  Env env;
  env.rpc.register_handler(env.b, "f", [](Bytes) -> CoTask<Bytes> {
    co_return to_bytes("v1");
  });
  env.rpc.register_handler(env.b, "f", [](Bytes) -> CoTask<Bytes> {
    co_return to_bytes("v2");
  });
  auto task = [&]() -> CoTask<std::string> {
    auto r = co_await env.rpc.call(env.a, env.b, "f", Bytes{});
    co_return from_bytes(r.value());
  };
  EXPECT_EQ(env.sim.run_until_complete(task()), "v2");
}

TEST(Rpc, RoundTripPaysTwoLatencies) {
  Env env;
  env.rpc.register_handler(env.b, "f", [](Bytes) -> CoTask<Bytes> {
    co_return Bytes{};
  });
  auto task = [&]() -> CoTask<double> {
    auto r = co_await env.rpc.call(env.a, env.b, "f", Bytes{});
    EXPECT_TRUE(r.ok());
    co_return env.sim.now();
  };
  EXPECT_NEAR(env.sim.run_until_complete(task()), 0.002, 1e-9);
}

TEST(Rpc, HandlerCanAwait) {
  Env env;
  env.rpc.register_handler(env.b, "slow", [sim = &env.sim](Bytes) -> CoTask<Bytes> {
    co_await sim->delay(1.0);
    co_return Bytes{};  // empty response: no bandwidth term in the check
  });
  auto task = [&]() -> CoTask<double> {
    auto r = co_await env.rpc.call(env.a, env.b, "slow", Bytes{});
    EXPECT_TRUE(r.ok());
    co_return env.sim.now();
  };
  EXPECT_NEAR(env.sim.run_until_complete(task()), 1.002, 1e-9);
}

TEST(Rpc, ServicePoolSerializesHandlers) {
  Env env;
  env.rpc.set_service_pool(env.b, 1, 0.0);
  env.rpc.register_handler(env.b, "slow", [sim = &env.sim](Bytes) -> CoTask<Bytes> {
    co_await sim->delay(1.0);
    co_return Bytes{};
  });
  auto call_once = [&]() -> CoTask<void> {
    auto r = co_await env.rpc.call(env.a, env.b, "slow", Bytes{});
    EXPECT_TRUE(r.ok());
  };
  auto f1 = env.sim.spawn(call_once());
  auto f2 = env.sim.spawn(call_once());
  auto f3 = env.sim.spawn(call_once());
  env.sim.run();
  (void)f1; (void)f2; (void)f3;
  // Three 1s handlers through a single slot: ~3s total.
  EXPECT_NEAR(env.sim.now(), 3.002, 1e-6);
}

TEST(Rpc, ServicePoolOverheadCharged) {
  Env env;
  env.rpc.set_service_pool(env.b, 4, 0.5);
  env.rpc.register_handler(env.b, "f", [](Bytes) -> CoTask<Bytes> {
    co_return Bytes{};
  });
  auto task = [&]() -> CoTask<double> {
    auto r = co_await env.rpc.call(env.a, env.b, "f", Bytes{});
    EXPECT_TRUE(r.ok());
    co_return env.sim.now();
  };
  EXPECT_NEAR(env.sim.run_until_complete(task()), 0.502, 1e-9);
}

TEST(Rpc, BulkChargesBytesAndStats) {
  Env env;
  auto task = [&]() -> CoTask<double> {
    auto st = co_await env.rpc.bulk(env.a, env.b,
                                    common::Buffer::synthetic(500.0 * 1000, 1));
    EXPECT_TRUE(st.ok());
    co_return env.sim.now();
  };
  // 500000 bytes over 1000 B/s NIC + 1ms latency.
  EXPECT_NEAR(env.sim.run_until_complete(task()), 500.001, 1e-6);
  EXPECT_EQ(env.rpc.stats().bulk_transfers, 1u);
  EXPECT_DOUBLE_EQ(env.rpc.stats().bulk_bytes, 500000.0);
}

TEST(Rpc, PayloadSizeAffectsTransferTime) {
  Env env;
  env.rpc.register_handler(env.b, "f", [](Bytes) -> CoTask<Bytes> {
    co_return Bytes{};
  });
  auto task = [&]() -> CoTask<double> {
    auto r = co_await env.rpc.call(env.a, env.b, "f", Bytes(10000));
    EXPECT_TRUE(r.ok());
    co_return env.sim.now();
  };
  // 10000 bytes at 1000 B/s = 10s + 2 latencies.
  EXPECT_NEAR(env.sim.run_until_complete(task()), 10.002, 1e-6);
}

struct PingReq {
  int64_t x = 0;
  template <class V>
  void fields(V& v) { v(x); }
};
struct PingResp {
  int64_t y = 0;
  template <class V>
  void fields(V& v) { v(y); }
};

TEST(Rpc, TypedCallRoundTrip) {
  Env env;
  env.rpc.register_handler(env.b, "double", [](Bytes req) -> CoTask<Bytes> {
    Deserializer d(req);
    auto in = common::decode<PingReq>(d);
    co_return common::encode(PingResp{in.x * 2});
  });
  auto task = [&]() -> CoTask<int64_t> {
    auto r = co_await typed_call<PingResp>(&env.rpc, env.a, env.b, "double",
                                           PingReq{21});
    EXPECT_TRUE(r.ok());
    co_return r->y;
  };
  EXPECT_EQ(env.sim.run_until_complete(task()), 42);
}

TEST(Rpc, TypedCallDetectsGarbageResponse) {
  Env env;
  env.rpc.register_handler(env.b, "garbage", [](Bytes) -> CoTask<Bytes> {
    co_return Bytes{std::byte{0xff}, std::byte{0xff}, std::byte{0xff},
                    std::byte{0xff}, std::byte{0xff}, std::byte{0xff},
                    std::byte{0xff}, std::byte{0xff}, std::byte{0xff},
                    std::byte{0xff}, std::byte{0xff}};
  });
  auto task = [&]() -> CoTask<bool> {
    auto r = co_await typed_call<PingResp>(&env.rpc, env.a, env.b, "garbage",
                                           PingReq{1});
    co_return r.ok();
  };
  EXPECT_FALSE(env.sim.run_until_complete(task()));
}

}  // namespace
}  // namespace evostore::net
