// Post-hoc trace/event analysis for the flight recorder (obs/events.h) and
// the Chrome-trace tracer (obs/trace.h).
//
// Three layers, each usable on its own:
//   1. A minimal generic JSON reader (`JsonValue` / `parse_json`). The repo
//      deliberately has no external dependencies, and the only JSON this
//      must read is the JSON this repo writes — so the parser is small,
//      strict where it matters (structure), and tolerant nowhere.
//   2. Artifact loaders: `parse_event_log` understands EventLog::write_json
//      output; `parse_chrome_trace` understands Tracer::write_chrome_trace.
//   3. Analyses: `check_invariants` (the CI gate — replication and tracing
//      properties that must hold for EVERY run), `critical_paths`
//      (per-request latency breakdowns), and `time_series` (handoff
//      backlog, reads served and failover rates over simulated time).
//
// Invariants checked (each violation is one human-readable string):
//   - completeness: the event log must not have dropped events (a truncated
//     log cannot prove anything — resize the ring instead);
//   - hint balance: every parked hint is eventually replayed, superseded by
//     a repair, or moved by a drain (moved hints re-record at the refuge,
//     so both sides of the move count consistently);
//   - replica reads: every `read.served` names a provider inside the
//     replica set it reports — a read served off-set is a routing bug;
//   - drain emptiness: every `drain.begin` is closed by a `drain.end` on
//     the same node with zero models/segments/hints left behind;
//   - repair completion: every `repair.begin` is closed by an ok
//     `repair.end` for the same target;
//   - span nesting: every span's parent exists, shares its trace id, and
//     does not start after its child. (Deliberately NOT interval
//     containment: a server handler span legitimately outlives a client
//     span whose deadline fired.)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace evostore::obs {

// ---- minimal JSON ---------------------------------------------------------

/// Parsed JSON tree node. Objects keep insertion order (the exports are
/// deterministic, so order is meaningful for round-trip tests).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_v = false;
  double num_v = 0;
  std::string str_v;
  std::vector<JsonValue> array_v;
  std::vector<std::pair<std::string, JsonValue>> object_v;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  double number_or(double fallback) const {
    return kind == Kind::kNumber ? num_v : fallback;
  }
};

/// Parse `text` into `*out`. Returns false (and fills `*error` with a
/// position-annotated message) on malformed input or trailing garbage.
bool parse_json(std::string_view text, JsonValue* out, std::string* error);

// ---- artifact loaders -----------------------------------------------------

/// One event as loaded from an exported log (seq is not exported).
struct AnalyzedEvent {
  double time = 0;
  std::string id;
  uint32_t node = 0;
  std::vector<std::pair<std::string, std::string>> attrs;

  /// Attr value by key; nullptr when absent.
  const std::string* attr(std::string_view key) const;
  uint64_t attr_u64(std::string_view key, uint64_t fallback = 0) const;
};

/// A loaded event-log file (EventLog::write_json output).
struct EventLogFile {
  uint64_t capacity = 0;
  uint64_t recorded = 0;
  uint64_t dropped = 0;
  std::vector<AnalyzedEvent> events;  // export order: (time, id, node, attrs)
};

bool parse_event_log(std::string_view text, EventLogFile* out,
                     std::string* error);

/// One complete span as loaded from a Chrome trace. Times in microseconds
/// (the trace's native unit).
struct SpanInfo {
  std::string name;
  uint32_t node = 0;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;  // 0 = root
  double ts_us = 0;
  double dur_us = 0;
  std::vector<std::pair<std::string, std::string>> tags;
};

bool parse_chrome_trace(std::string_view text, std::vector<SpanInfo>* out,
                        std::string* error);

// ---- invariants -----------------------------------------------------------

struct InvariantReport {
  std::vector<std::string> violations;
  // Summary counters (filled whether or not violations exist).
  uint64_t hints_recorded = 0;
  uint64_t hints_replayed = 0;
  uint64_t hints_superseded = 0;
  uint64_t hints_moved = 0;
  uint64_t reads_served = 0;
  uint64_t read_failovers = 0;
  uint64_t drains_checked = 0;
  uint64_t repairs_checked = 0;
  uint64_t spans_checked = 0;

  bool ok() const { return violations.empty(); }
};

/// Run every invariant that applies to the inputs given. Pass an empty span
/// vector when only an event log is available (span nesting is then
/// vacuously unchecked), and vice versa an empty event log.
InvariantReport check_invariants(const EventLogFile& events,
                                 const std::vector<SpanInfo>& spans);

// ---- critical paths -------------------------------------------------------

/// One hop on a trace's critical path: the span, its duration, and its
/// self time (duration minus the child consuming the most of it).
struct CriticalPathStep {
  std::string name;
  uint32_t node = 0;
  double dur_us = 0;
  double self_us = 0;
};

struct CriticalPath {
  uint64_t trace_id = 0;
  std::string root;
  double total_us = 0;
  std::vector<CriticalPathStep> steps;  // root first, deepest last
};

/// Per-trace critical paths, longest total first. At each level the child
/// with the largest duration is followed. `max_paths` 0 = all.
std::vector<CriticalPath> critical_paths(const std::vector<SpanInfo>& spans,
                                         size_t max_paths = 0);

// ---- time series ----------------------------------------------------------

/// One bucket of the replication time-series.
struct SeriesRow {
  double bucket_start = 0;
  /// Parked hints outstanding at bucket end: cumulative recorded minus
  /// replayed, superseded, and moved.
  int64_t hint_backlog = 0;
  uint64_t reads_served = 0;
  uint64_t read_failovers = 0;
};

/// Bucket events into `bucket_seconds`-wide rows (empty buckets between
/// occupied ones are emitted so plots have a continuous x-axis).
std::vector<SeriesRow> time_series(const EventLogFile& events,
                                   double bucket_seconds);

}  // namespace evostore::obs
