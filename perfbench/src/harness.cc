#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/hash.h"

namespace perfbench {

double host_now() {
  // evo-lint: suppress(EVO-DET-001) host-only benchmark timer, never digested
  auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(t).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

// 1-based nearest rank of the q-quantile among n samples; the epsilon keeps
// 0.99 * 1000 at rank 990.
size_t nearest_rank(size_t n, double q) {
  return static_cast<size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(n) - 1e-9)));
}

bool supported(size_t n, double q) {
  return n > 0 && q >= 0 && q <= 1 && n - nearest_rank(n, q) >= 10;
}

}  // namespace

std::optional<double> percentile(std::vector<double> values, double q) {
  if (!supported(values.size(), q)) return std::nullopt;
  const size_t rank = nearest_rank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double tail_quantile(size_t n) {
  for (double q : {0.99, 0.9, 0.5}) {
    if (supported(n, q)) return q;
  }
  return 0;
}

void Digest::add_u64(uint64_t v) { h_ = evostore::common::hash_combine(h_, v); }

void Digest::add_f64(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add_u64(bits);
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  char line[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"sim_start\":%.9f,\"sim_end\":%.9f,"
                  "\"host_start\":%.9f,\"host_end\":%.9f,\"request\":%llu,"
                  "\"parent\":%llu}%s\n",
                  s.name, s.sim_start, s.sim_end, s.host_start, s.host_end,
                  static_cast<unsigned long long>(s.request),
                  static_cast<unsigned long long>(s.parent),
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

void print_metric(const std::string& name, double value, const char* unit,
                  size_t samples) {
  std::printf("  %-34s %16.6f %-6s n=%zu\n", name.c_str(), value, unit,
              samples);
}

}  // namespace perfbench
