#include "storage/chunk_store.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/fields.h"

namespace evostore::storage {

ChunkStore::ChunkStore(KvStore* backend) : backend_(backend) {}

std::string ChunkStore::record_key(uint64_t seq) {
  return "chunk/" + std::to_string(seq);
}

void ChunkStore::persist(const common::Hash128& digest, const Chunk& chunk) {
  if (backend_ == nullptr) return;
  (void)backend_->put(
      record_key(chunk.record_seq),
      common::Buffer::dense(
          common::encode(ChunkRecord{digest, chunk.cost, chunk.bytes})));
}

bool ChunkStore::add_ref(const common::Hash128& digest,
                         std::span<const std::byte> bytes, uint64_t cost) {
  auto it = chunks_.find(digest);
  if (it != chunks_.end()) {
    ++it->second.refs;
    ++stats_.hits;
    stats_.saved_bytes += cost;
    return false;
  }
  Chunk chunk;
  chunk.bytes.assign(bytes.begin(), bytes.end());
  chunk.cost = cost;
  chunk.refs = 1;
  chunk.record_seq = ++record_seq_;
  physical_bytes_ += cost;
  payload_bytes_ += chunk.bytes.size();
  ++stats_.misses;
  persist(digest, chunk);
  chunks_.emplace(digest, std::move(chunk));
  return true;
}

bool ChunkStore::add_ref_existing(const common::Hash128& digest) {
  auto it = chunks_.find(digest);
  if (it == chunks_.end()) return false;
  ++it->second.refs;
  return true;
}

uint64_t ChunkStore::release(const common::Hash128& digest) {
  auto it = chunks_.find(digest);
  if (it == chunks_.end()) return 0;
  if (--it->second.refs > 0) return 0;
  uint64_t cost = it->second.cost;
  physical_bytes_ -= cost;
  payload_bytes_ -= it->second.bytes.size();
  ++stats_.freed;
  if (backend_ != nullptr) {
    (void)backend_->erase(record_key(it->second.record_seq));
  }
  chunks_.erase(it);
  return cost;
}

const ChunkStore::Chunk* ChunkStore::find(
    const common::Hash128& digest) const {
  auto it = chunks_.find(digest);
  return it == chunks_.end() ? nullptr : &it->second;
}

void ChunkStore::clear() {
  chunks_.clear();
  physical_bytes_ = 0;
  payload_bytes_ = 0;
}

bool ChunkStore::install(const common::Hash128& digest, common::Bytes bytes,
                         uint64_t cost, uint64_t record_seq) {
  Chunk chunk;
  chunk.bytes = std::move(bytes);
  chunk.cost = cost;
  chunk.refs = 0;
  chunk.record_seq = record_seq;
  auto [it, inserted] = chunks_.emplace(digest, std::move(chunk));
  if (!inserted) return false;
  physical_bytes_ += cost;
  payload_bytes_ += it->second.bytes.size();
  record_seq_ = std::max(record_seq_, record_seq);
  return true;
}

bool ChunkStore::restore_record(const std::string& key,
                                std::span<const std::byte> value) {
  common::Deserializer d(value);
  auto record = common::decode<ChunkRecord>(d);
  if (!d.finish().ok()) return false;
  uint64_t seq = std::strtoull(key.c_str() + 6, nullptr, 10);  // "chunk/"
  install(record.digest, std::move(record.bytes), record.cost, seq);
  return true;
}

size_t ChunkStore::drop_unreferenced() {
  size_t dropped = 0;
  for (auto it = chunks_.begin(); it != chunks_.end();) {
    if (it->second.refs > 0) {
      ++it;
      continue;
    }
    physical_bytes_ -= it->second.cost;
    payload_bytes_ -= it->second.bytes.size();
    if (backend_ != nullptr) {
      (void)backend_->erase(record_key(it->second.record_seq));
    }
    it = chunks_.erase(it);
    ++dropped;
  }
  return dropped;
}

}  // namespace evostore::storage
