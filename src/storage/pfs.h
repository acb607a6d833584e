// Parallel file system model (Lustre-class), used by the HDF5+PFS baseline.
//
// Data path: files are striped round-robin over `stripe_count` object
// storage targets (OSTs) starting at a hash of the path. Each stripe's bytes
// flow through [client NIC egress, OST bandwidth port] (or the reverse for
// reads) in the shared FlowScheduler, so concurrent clients contend for both
// their NIC and the OSTs — the contention that flattens HDF5+PFS's curve in
// paper Fig. 4.
//
// Metadata path: open/create/stat/unlink are serviced by a metadata server
// pool with bounded parallelism and per-op service time (40 MDTs on Polaris;
// §5.1), which queues under bursts.
//
// File contents are held as scatter/gather lists of Buffers, so multi-GB
// synthetic payloads are stored without materializing. Reads hand back the
// same shape: a whole-file read returns the extents, and a range read
// returns zero-copy slices of the extents it covers, so no read path ever
// copies or generates payload bytes.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/status.h"
#include "net/fabric.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace evostore::storage {

struct PfsConfig {
  int ost_count = 150;
  /// Aggregate bandwidth across all OSTs (bytes/s); per-OST = aggregate/count.
  double aggregate_bandwidth = 650e9;
  int stripe_count = 4;
  size_t stripe_size = 1 << 20;
  /// Metadata service: concurrent ops and per-op service time.
  int mds_parallelism = 40;
  double mds_op_seconds = 50e-6;
};

class Pfs {
 public:
  Pfs(net::Fabric& fabric, PfsConfig config = {});

  const PfsConfig& config() const { return config_; }
  sim::Simulation& simulation() { return fabric_->simulation(); }

  /// Write a whole file (create or replace). Pays one metadata op plus the
  /// striped data transfer of all extents.
  sim::CoTask<common::Status> write(common::NodeId client, std::string path,
                                    std::vector<common::Buffer> extents);

  /// Read a whole file. Pays one metadata op plus the striped transfer.
  sim::CoTask<common::Result<std::vector<common::Buffer>>> read(
      common::NodeId client, std::string path);

  /// Read `len` logical bytes starting at `offset`, as a gather list of
  /// zero-copy slices of the extents the range covers (in file order; their
  /// sizes sum to `len`). The slices share ownership of the stored extents,
  /// so they stay valid after the file is overwritten or removed. Pays one
  /// metadata op plus the transfer of just that range (small-range reads
  /// still pay the per-op latency — the paper's "not optimized for small
  /// non-contiguous transfers" effect).
  sim::CoTask<common::Result<std::vector<common::Buffer>>> read_range(
      common::NodeId client, std::string path, size_t offset, size_t len);

  /// Metadata-only existence check.
  sim::CoTask<bool> exists(common::NodeId client, std::string path);

  /// Remove a file (metadata op).
  sim::CoTask<common::Status> remove(common::NodeId client,
                                     std::string path);

  /// Zero-cost same-process view of a file's extents (simulation
  /// side-channel used by clients that already parsed a file's layout and
  /// charge their data movement through read_range). Null if absent.
  const std::vector<common::Buffer>* peek(const std::string& path) const {
    auto it = files_.find(path);
    return it == files_.end() ? nullptr : &it->second.extents;
  }

  /// Logical bytes currently stored across all files.
  size_t stored_bytes() const { return stored_bytes_; }
  size_t file_count() const { return files_.size(); }

  /// Total metadata operations served (for overhead breakdowns).
  uint64_t mds_ops() const { return mds_ops_; }

 private:
  struct File {
    std::vector<common::Buffer> extents;
    size_t size = 0;
    uint32_t first_ost = 0;
  };

  sim::CoTask<void> mds_op();
  /// Move `bytes` of file data between client and the file's OSTs.
  /// `to_ost` = true for writes.
  sim::CoTask<void> data_transfer(common::NodeId client, const File& file,
                                  size_t bytes, bool to_ost);

  net::Fabric* fabric_;
  PfsConfig config_;
  std::vector<sim::PortId> ost_ports_;
  std::unique_ptr<sim::Semaphore> mds_slots_;
  std::map<std::string, File> files_;
  size_t stored_bytes_ = 0;
  uint64_t mds_ops_ = 0;
};

}  // namespace evostore::storage
