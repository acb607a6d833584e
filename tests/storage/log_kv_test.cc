#include "storage/log_kv.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>

namespace evostore::storage {
namespace {

using common::Buffer;

class LogKvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("logkv_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<LogKv> open(LogKvOptions options = {}) {
    auto r = LogKv::open(dir_, options);
    EXPECT_TRUE(r.ok()) << r.status().to_string();
    return std::move(r).value();
  }

  std::filesystem::path dir_;
};

Buffer value_of(const std::string& s) {
  return Buffer::copy(std::as_bytes(std::span(s.data(), s.size())));
}

TEST_F(LogKvTest, PutGetRoundTrip) {
  auto kv = open();
  ASSERT_TRUE(kv->put("key", value_of("value")).ok());
  auto r = kv->get("key");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->content_equals(value_of("value")));
  EXPECT_EQ(kv->size(), 1u);
}

TEST_F(LogKvTest, GetMissing) {
  auto kv = open();
  EXPECT_EQ(kv->get("missing").status().code(), common::ErrorCode::kNotFound);
}

TEST_F(LogKvTest, OverwriteAndDeadBytes) {
  auto kv = open();
  ASSERT_TRUE(kv->put("k", Buffer::zeros(100)).ok());
  EXPECT_EQ(kv->dead_bytes(), 0u);
  ASSERT_TRUE(kv->put("k", Buffer::zeros(50)).ok());
  EXPECT_GT(kv->dead_bytes(), 0u);
  EXPECT_EQ(kv->value_bytes(), 50u);
  auto r = kv->get("k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 50u);
}

TEST_F(LogKvTest, EraseAddsTombstone) {
  auto kv = open();
  ASSERT_TRUE(kv->put("k", Buffer::zeros(10)).ok());
  ASSERT_TRUE(kv->erase("k").ok());
  EXPECT_FALSE(kv->contains("k"));
  EXPECT_EQ(kv->size(), 0u);
  EXPECT_EQ(kv->value_bytes(), 0u);
  EXPECT_EQ(kv->erase("k").code(), common::ErrorCode::kNotFound);
}

TEST_F(LogKvTest, PersistsAcrossReopen) {
  {
    auto kv = open();
    ASSERT_TRUE(kv->put("a", value_of("alpha")).ok());
    ASSERT_TRUE(kv->put("b", value_of("beta")).ok());
    ASSERT_TRUE(kv->put("a", value_of("alpha2")).ok());  // overwrite
    ASSERT_TRUE(kv->put("c", value_of("gamma")).ok());
    ASSERT_TRUE(kv->erase("b").ok());
  }
  auto kv = open();
  EXPECT_EQ(kv->size(), 2u);
  EXPECT_TRUE(kv->get("a")->content_equals(value_of("alpha2")));
  EXPECT_FALSE(kv->contains("b"));
  EXPECT_TRUE(kv->get("c")->content_equals(value_of("gamma")));
}

TEST_F(LogKvTest, SyntheticValuesPersistAsDescriptors) {
  {
    auto kv = open();
    ASSERT_TRUE(kv->put("huge", Buffer::synthetic(1ull << 32, 99)).ok());
  }
  // 4 GB logical value in a tiny log file.
  EXPECT_LT(std::filesystem::file_size(dir_ / "00000001.evl"), 1024u);
  auto kv = open();
  auto r = kv->get("huge");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->is_synthetic());
  EXPECT_EQ(r->size(), 1ull << 32);
  EXPECT_EQ(r->seed(), 99u);
  // Accounting mirrors the on-disk reality: logical is the full value,
  // physical is the descriptor.
  EXPECT_EQ(kv->logical_value_bytes(), 1ull << 32);
  EXPECT_LT(kv->value_bytes(), 64u);
}

TEST_F(LogKvTest, SyntheticSlicesPersistAsDescriptors) {
  Buffer small = Buffer::synthetic(100, 7).slice(10, 20);
  Buffer huge = Buffer::synthetic(1ull << 40, 8).slice(1ull << 39, 1ull << 32);
  {
    auto kv = open();
    ASSERT_TRUE(kv->put("small", small).ok());
    ASSERT_TRUE(kv->put("huge", huge).ok());
  }
  EXPECT_LT(std::filesystem::file_size(dir_ / "00000001.evl"), 1024u);
  auto kv = open();
  for (const auto& [key, want] : {std::pair{"small", small},
                                  std::pair{"huge", huge}}) {
    auto r = kv->get(key);
    ASSERT_TRUE(r.ok()) << key;
    EXPECT_TRUE(r->is_synthetic()) << key;
    EXPECT_EQ(r->stream_offset(), want.stream_offset()) << key;
    EXPECT_TRUE(r->content_equals(want)) << key;
  }
  EXPECT_TRUE(kv->get("small")->content_equals(small.materialize()));
}

TEST_F(LogKvTest, SegmentRollover) {
  LogKvOptions opt;
  opt.segment_max_bytes = 256;
  auto kv = open(opt);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(kv->put("key" + std::to_string(i), Buffer::zeros(32)).ok());
  }
  EXPECT_GT(kv->segment_count(), 3u);
  // Reopen spans multiple segments.
  kv.reset();
  kv = open(opt);
  EXPECT_EQ(kv->size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(kv->contains("key" + std::to_string(i)));
  }
}

TEST_F(LogKvTest, CompactReclaimsSpace) {
  auto kv = open();
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(kv->put("k" + std::to_string(i), Buffer::zeros(64)).ok());
    }
  }
  for (int i = 10; i < 20; ++i) {
    ASSERT_TRUE(kv->erase("k" + std::to_string(i)).ok());
  }
  size_t disk_before = kv->disk_bytes();
  auto reclaimed = kv->compact();
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_GT(reclaimed.value(), 0u);
  EXPECT_LT(kv->disk_bytes(), disk_before);
  EXPECT_EQ(kv->dead_bytes(), 0u);
  EXPECT_EQ(kv->size(), 10u);
  for (int i = 0; i < 10; ++i) {
    auto r = kv->get("k" + std::to_string(i));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->size(), 64u);
  }
}

TEST_F(LogKvTest, CompactThenReopen) {
  auto kv = open();
  ASSERT_TRUE(kv->put("keep", value_of("data")).ok());
  ASSERT_TRUE(kv->put("drop", value_of("junk")).ok());
  ASSERT_TRUE(kv->erase("drop").ok());
  ASSERT_TRUE(kv->compact().ok());
  kv.reset();
  kv = open();
  EXPECT_EQ(kv->size(), 1u);
  EXPECT_TRUE(kv->get("keep")->content_equals(value_of("data")));
}

TEST_F(LogKvTest, TornTailIsTruncatedOnRecovery) {
  {
    auto kv = open();
    ASSERT_TRUE(kv->put("good", value_of("intact")).ok());
    ASSERT_TRUE(kv->put("torn", value_of("will be cut")).ok());
  }
  // Chop bytes off the end of the last segment, simulating a crash
  // mid-append.
  auto seg = dir_ / "00000001.evl";
  auto size = std::filesystem::file_size(seg);
  std::filesystem::resize_file(seg, size - 5);

  auto kv = open();
  EXPECT_TRUE(kv->contains("good"));
  EXPECT_FALSE(kv->contains("torn"));
  // The store remains writable after truncation.
  ASSERT_TRUE(kv->put("after", value_of("recovery")).ok());
  EXPECT_TRUE(kv->get("after")->content_equals(value_of("recovery")));
}

TEST_F(LogKvTest, CorruptPayloadDetectedByChecksum) {
  {
    auto kv = open();
    ASSERT_TRUE(kv->put("x", value_of("sensitive-data")).ok());
  }
  // Flip a byte inside the record payload.
  auto seg = dir_ / "00000001.evl";
  std::fstream f(seg, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(20);
  char c;
  f.seekg(20);
  f.get(c);
  f.seekp(20);
  f.put(static_cast<char>(c ^ 0x5a));
  f.close();

  // Single (= last) segment: recovery truncates the corrupt tail.
  auto kv = open();
  EXPECT_FALSE(kv->contains("x"));
}

std::string hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 15];
  }
  return out;
}

// A dense put, a synthetic put and a tombstone, exactly as older builds
// wrote them: [u32 len][u64 checksum][tombstone, key, value].
constexpr const char* kPinnedLog =
    "08000000c138d76a2f0ff0c900016b000361626306000000c152b8423a640311"
    "00017301094003000000d68d36764dd824bf01016b";

TEST_F(LogKvTest, PinnedRecordBytes) {
  const auto segment = dir_ / "00000001.evl";
  {
    auto kv = open();
    ASSERT_TRUE(kv->put("k", value_of("abc")).ok());
    ASSERT_TRUE(kv->put("s", Buffer::synthetic(64, 9)).ok());
    ASSERT_TRUE(kv->erase("k").ok());
  }
  std::ifstream in(segment, std::ios::binary);
  std::string written((std::istreambuf_iterator<char>(in)), {});
  EXPECT_EQ(hex(written), kPinnedLog);

  // The pinned log replays into the same contents.
  std::filesystem::remove_all(dir_);
  std::filesystem::create_directories(dir_);
  {
    std::ofstream out(segment, std::ios::binary);
    const std::string h = kPinnedLog;
    for (size_t i = 0; i + 1 < h.size(); i += 2) {
      out.put(static_cast<char>(std::stoi(h.substr(i, 2), nullptr, 16)));
    }
  }
  auto kv = open();
  EXPECT_FALSE(kv->contains("k"));
  auto s = kv->get("s");
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->content_equals(Buffer::synthetic(64, 9)));
}

TEST_F(LogKvTest, KeysSorted) {
  auto kv = open();
  for (const char* k : {"c", "a", "b"}) {
    ASSERT_TRUE(kv->put(k, Buffer::zeros(1)).ok());
  }
  EXPECT_EQ(kv->keys(), (std::vector<std::string>{"a", "b", "c"}));
}

TEST_F(LogKvTest, ReopenCompactsWhenMostlyDead) {
  LogKvOptions opt;
  opt.segment_max_bytes = 1024;
  size_t disk_before = 0;
  {
    auto kv = open(opt);
    for (int round = 0; round < 8; ++round) {
      for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(kv->put("k" + std::to_string(i), Buffer::zeros(64)).ok());
      }
    }
    for (int i = 5; i < 10; ++i) {
      ASSERT_TRUE(kv->erase("k" + std::to_string(i)).ok());
    }
    EXPECT_GT(kv->dead_bytes(), kv->disk_bytes() / 2);
    disk_before = kv->disk_bytes();
  }
  // No explicit compact(): open() itself runs the sweep (over half the log
  // is dead) and the rebuilt store starts from a clean, smaller file set.
  auto kv = open(opt);
  EXPECT_LT(kv->disk_bytes(), disk_before);
  EXPECT_EQ(kv->dead_bytes(), 0u);
  EXPECT_EQ(kv->size(), 5u);
  for (int i = 0; i < 5; ++i) {
    auto r = kv->get("k" + std::to_string(i));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->size(), 64u);
  }
}

TEST_F(LogKvTest, ReopenSweepDisabledByZeroRatio) {
  LogKvOptions opt;
  opt.compact_on_open_ratio = 0;
  size_t disk_before = 0;
  {
    auto kv = open(opt);
    ASSERT_TRUE(kv->put("k", Buffer::zeros(256)).ok());
    ASSERT_TRUE(kv->put("k", Buffer::zeros(8)).ok());
    disk_before = kv->disk_bytes();
  }
  auto kv = open(opt);
  EXPECT_EQ(kv->disk_bytes(), disk_before);
  EXPECT_GT(kv->dead_bytes(), 0u);
}

TEST_F(LogKvTest, ReopenSweepSkipsMostlyLiveLog) {
  size_t disk_before = 0;
  {
    auto kv = open();
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(kv->put("k" + std::to_string(i), Buffer::zeros(64)).ok());
    }
    ASSERT_TRUE(kv->erase("k0").ok());  // small dead share
    disk_before = kv->disk_bytes();
  }
  auto kv = open();
  // Under the ratio: no rewrite (the tombstone's dead bytes survive).
  EXPECT_EQ(kv->disk_bytes(), disk_before);
  EXPECT_GT(kv->dead_bytes(), 0u);
}

TEST_F(LogKvTest, ManyKeysStressAndReopen) {
  LogKvOptions opt;
  opt.segment_max_bytes = 4096;
  {
    auto kv = open(opt);
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(
          kv->put("key" + std::to_string(i),
                  Buffer::synthetic(static_cast<size_t>(i % 97) + 1,
                                    static_cast<uint64_t>(i)))
              .ok());
    }
    for (int i = 0; i < 500; i += 3) {
      ASSERT_TRUE(kv->erase("key" + std::to_string(i)).ok());
    }
  }
  auto kv = open(opt);
  size_t expected = 0;
  for (int i = 0; i < 500; ++i) {
    bool erased = (i % 3 == 0);
    EXPECT_EQ(kv->contains("key" + std::to_string(i)), !erased);
    if (!erased) ++expected;
  }
  EXPECT_EQ(kv->size(), expected);
}

}  // namespace
}  // namespace evostore::storage
