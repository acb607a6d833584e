// Measurement helpers of the benchmark driver: host clock, percentile
// selection, failure accounting, the determinism digest and the in-memory
// span log. Everything here is benchmark-side; nothing feeds back into the
// simulation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Host seconds on a monotonic clock. Host time is what the engine costs on
/// the machine running the benchmark; it is reported, never digested.
double host_now();

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double peak_rss_mb();

/// Nearest-rank `q`-quantile of `values`, or nullopt when fewer than ten
/// samples lie beyond it (a tail percentile read off fewer samples is noise,
/// not a measurement). The median therefore needs 20 samples, p90 100 and
/// p99 1000.
std::optional<double> percentile(std::vector<double> values, double q);

/// The highest of p99 / p90 / p50 that `n` samples support under the
/// at-least-ten-beyond rule, or 0 when none does.
double tail_quantile(size_t n);

/// Operations attempted and failed. An operation fails when the call
/// returned a non-OK status or its output failed a correctness check.
struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// A correctness check on an already counted operation: a failure adds to
  /// `failed` without adding another attempt.
  void check(bool ok) {
    if (!ok) ++failed;
  }
  void merge(const OpCount& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
  double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// Order-sensitive digest of simulated results. Doubles are folded by their
/// bit pattern, so two digests agree only if every value is byte-identical.
class Digest {
 public:
  void add_u64(uint64_t v);
  void add_f64(double v);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0x243f6a8885a308d3ULL;
};

/// One benchmark-side span: a client/repository call or a benchmark phase.
struct Span {
  const char* name = "";
  double sim_start = 0;
  double sim_end = 0;
  double host_start = 0;
  double host_end = 0;
  uint64_t request = 0;  // query index or model id
  uint64_t parent = 0;   // worker index, client node, or 0 for phases
};

/// Spans kept in memory while tracing, written out once at the end.
class SpanLog {
 public:
  bool enabled() const { return enabled_; }
  void enable() { enabled_ = true; }
  void add(const Span& s) {
    if (enabled_) spans_.push_back(s);
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// JSON array, one object per span.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

/// `name value unit n=<samples>` report line on stdout.
void print_metric(const std::string& name, double value, const char* unit,
                  size_t samples);

}  // namespace perfbench
