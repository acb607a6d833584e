#include "obs/analyze.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/events.h"

namespace evostore::obs {
namespace {

// ---- JSON reader ----------------------------------------------------------

TEST(ParseJson, ScalarsAndNesting) {
  JsonValue v;
  std::string err;
  ASSERT_TRUE(parse_json(
      R"({"a": 1.5, "b": "x\n\"y\"", "c": [true, false, null], "d": {}})", &v,
      &err))
      << err;
  ASSERT_EQ(v.kind, JsonValue::Kind::kObject);
  EXPECT_DOUBLE_EQ(v.find("a")->num_v, 1.5);
  EXPECT_EQ(v.find("b")->str_v, "x\n\"y\"");
  ASSERT_EQ(v.find("c")->array_v.size(), 3u);
  EXPECT_TRUE(v.find("c")->array_v[0].bool_v);
  EXPECT_EQ(v.find("c")->array_v[2].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(v.find("d")->kind, JsonValue::Kind::kObject);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ParseJson, UnicodeEscape) {
  JsonValue v;
  std::string err;
  ASSERT_TRUE(parse_json("\"a\\u0041\\u00e9\\u20ac\"", &v, &err)) << err;
  EXPECT_EQ(v.str_v, "aA\xc3\xa9\xe2\x82\xac");
  EXPECT_FALSE(parse_json("\"\\u12g4\"", &v, &err));
  EXPECT_FALSE(parse_json("\"\\u12\"", &v, &err));
}

TEST(ParseJson, FailsLoudlyOnMalformedInput) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(parse_json(R"({"a": )", &v, &err));
  EXPECT_NE(err.find("offset"), std::string::npos);
  err.clear();
  EXPECT_FALSE(parse_json(R"({"a": 1} trailing)", &v, &err));
  EXPECT_NE(err.find("trailing garbage"), std::string::npos);
  EXPECT_FALSE(parse_json(R"({"a" 1})", &v, &err));
  EXPECT_FALSE(parse_json("[1, 2", &v, &err));
  EXPECT_FALSE(parse_json("nul", &v, &err));
  EXPECT_FALSE(parse_json("\"unterminated", &v, &err));
  EXPECT_FALSE(parse_json("", &v, &err));
}

// ---- event-log round trip -------------------------------------------------

TEST(ParseEventLog, RoundTripsWriterOutput) {
  EventLog log(16);
  log.record(0.5, "hint.recorded", 2,
             {{"count", "1"}, {"target", EventLog::u64(4)}});
  log.record(1.25, "read.served", 3,
             {{"model", "m#7"}, {"provider", "1"}, {"replicas", "0,1"}});
  std::ostringstream os;
  log.write_json(os);

  EventLogFile file;
  std::string err;
  ASSERT_TRUE(parse_event_log(os.str(), &file, &err)) << err;
  EXPECT_EQ(file.capacity, 16u);
  EXPECT_EQ(file.recorded, 2u);
  EXPECT_EQ(file.dropped, 0u);
  ASSERT_EQ(file.events.size(), 2u);
  EXPECT_EQ(file.events[0].id, "hint.recorded");
  EXPECT_DOUBLE_EQ(file.events[0].time, 0.5);
  EXPECT_EQ(file.events[0].node, 2u);
  EXPECT_EQ(file.events[0].attr_u64("target"), 4u);
  ASSERT_NE(file.events[1].attr("replicas"), nullptr);
  EXPECT_EQ(*file.events[1].attr("replicas"), "0,1");
  EXPECT_EQ(file.events[1].attr("absent"), nullptr);
  EXPECT_EQ(file.events[1].attr_u64("absent", 9u), 9u);
}

TEST(ParseEventLog, FailsLoudlyOnCorruptLog) {
  EventLogFile file;
  std::string err;
  // Truncated mid-stream (a crashed writer, a partial copy).
  EXPECT_FALSE(parse_event_log(
      R"({"capacity": 8, "recorded": 2, "dropped": 0, "events": [{"time")",
      &file, &err));
  EXPECT_FALSE(err.empty());
  // Structurally valid JSON that is not an event log.
  EXPECT_FALSE(parse_event_log(R"([1, 2, 3])", &file, &err));
  EXPECT_FALSE(parse_event_log(R"({"recorded": 2})", &file, &err));
  EXPECT_NE(err.find("events"), std::string::npos);
  // An event without a string id.
  EXPECT_FALSE(parse_event_log(
      R"({"events": [{"time": 1, "id": 42, "node": 0, "attrs": {}}]})", &file,
      &err));
  // Attrs must be strings (the writer always quotes values).
  EXPECT_FALSE(parse_event_log(
      R"({"events": [{"time": 1, "id": "e", "node": 0, "attrs": {"n": 3}}]})",
      &file, &err));
  EXPECT_NE(err.find("attr"), std::string::npos);
}

// ---- chrome-trace loader --------------------------------------------------

TEST(ParseChromeTrace, LoadsCompleteSpans) {
  const char* trace = R"({"displayTimeUnit": "ms", "traceEvents": [
    {"name": "put_model", "cat": "evostore", "ph": "X", "ts": 10.000,
     "dur": 30.000, "pid": 1, "tid": 7,
     "args": {"trace_id": 7, "span_id": 7, "parent_span_id": 0,
              "model": "m#1"}},
    {"name": "rpc", "cat": "evostore", "ph": "X", "ts": 12.000,
     "dur": 20.000, "pid": 1, "tid": 7,
     "args": {"trace_id": 7, "span_id": 8, "parent_span_id": 7}},
    {"name": "ignored-instant", "ph": "i", "ts": 1}
  ]})";
  std::vector<SpanInfo> spans;
  std::string err;
  ASSERT_TRUE(parse_chrome_trace(trace, &spans, &err)) << err;
  ASSERT_EQ(spans.size(), 2u);  // the non-"X" record is skipped
  EXPECT_EQ(spans[0].name, "put_model");
  EXPECT_EQ(spans[0].trace_id, 7u);
  EXPECT_EQ(spans[0].parent_span_id, 0u);
  EXPECT_DOUBLE_EQ(spans[0].dur_us, 30.0);
  ASSERT_EQ(spans[0].tags.size(), 1u);
  EXPECT_EQ(spans[0].tags[0].first, "model");
  EXPECT_EQ(spans[1].parent_span_id, 7u);
}

TEST(ParseChromeTrace, FailsLoudlyOnBadTrace) {
  std::vector<SpanInfo> spans;
  std::string err;
  EXPECT_FALSE(parse_chrome_trace("{}", &spans, &err));
  EXPECT_NE(err.find("traceEvents"), std::string::npos);
  EXPECT_FALSE(parse_chrome_trace(
      R"({"traceEvents": [{"name": "s", "ph": "X", "args": {}}]})", &spans,
      &err));
  EXPECT_NE(err.find("span_id"), std::string::npos);
}

// ---- invariants -----------------------------------------------------------

EventLogFile balanced_log() {
  EventLogFile f;
  auto add = [&f](double t, const char* id, uint32_t node,
                  std::vector<std::pair<std::string, std::string>> attrs) {
    AnalyzedEvent e;
    e.time = t;
    e.id = id;
    e.node = node;
    e.attrs = std::move(attrs);
    f.events.push_back(std::move(e));
  };
  add(1.0, "hint.recorded", 2, {{"count", "1"}, {"target", "3"}});
  add(1.5, "hint.recorded", 2, {{"count", "1"}, {"target", "3"}});
  add(2.0, "hint.replayed", 2, {{"count", "2"}, {"target", "3"}});
  add(2.5, "read.served", 5,
      {{"model", "m#1"}, {"provider", "1"}, {"rank", "0"},
       {"replicas", "1,2"}});
  add(3.0, "drain.begin", 4,
      {{"models", "2"}, {"segments", "6"}, {"hints", "0"}});
  add(3.5, "drain.end", 4,
      {{"models_left", "0"}, {"segments_left", "0"}, {"hints_left", "0"},
       {"models_moved", "2"}, {"segments_moved", "6"}, {"hints_moved", "0"}});
  add(4.0, "repair.begin", 1, {{"target", "0"}});
  add(4.5, "repair.end", 1, {{"target", "0"}, {"outcome", "ok"}});
  f.recorded = f.events.size();
  f.capacity = 64;
  return f;
}

TEST(CheckInvariants, PassesOnBalancedLog) {
  InvariantReport r = check_invariants(balanced_log(), {});
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "" : r.violations[0]);
  EXPECT_EQ(r.hints_recorded, 2u);
  EXPECT_EQ(r.hints_replayed, 2u);
  EXPECT_EQ(r.reads_served, 1u);
  EXPECT_EQ(r.drains_checked, 1u);
  EXPECT_EQ(r.repairs_checked, 1u);
}

TEST(CheckInvariants, RefusesTruncatedLog) {
  EventLogFile f = balanced_log();
  f.dropped = 3;
  InvariantReport r = check_invariants(f, {});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.violations[0].find("dropped"), std::string::npos);
}

TEST(CheckInvariants, CatchesHintImbalance) {
  EventLogFile f = balanced_log();
  AnalyzedEvent e;
  e.time = 9.0;
  e.id = "hint.recorded";
  e.attrs = {{"count", "1"}, {"target", "0"}};
  f.events.push_back(e);
  InvariantReport r = check_invariants(f, {});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.violations[0].find("hint imbalance"), std::string::npos);
}

TEST(CheckInvariants, CatchesOffReplicaRead) {
  EventLogFile f = balanced_log();
  AnalyzedEvent e;
  e.time = 9.0;
  e.id = "read.served";
  e.attrs = {{"model", "m#2"}, {"provider", "7"}, {"replicas", "1,2"}};
  f.events.push_back(e);
  InvariantReport r = check_invariants(f, {});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.violations[0].find("not in the replica set"), std::string::npos);
}

TEST(CheckInvariants, CatchesDrainAndRepairProblems) {
  {  // unclosed drain
    EventLogFile f = balanced_log();
    AnalyzedEvent e;
    e.time = 9.0;
    e.id = "drain.begin";
    e.node = 8;
    f.events.push_back(e);
    InvariantReport r = check_invariants(f, {});
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.violations[0].find("never closed"), std::string::npos);
  }
  {  // drain left catalog entries behind
    EventLogFile f = balanced_log();
    for (auto& e : f.events) {
      if (e.id == "drain.end") e.attrs = {{"models_left", "1"}};
    }
    InvariantReport r = check_invariants(f, {});
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.violations[0].find("left"), std::string::npos);
  }
  {  // repair ended with an error
    EventLogFile f = balanced_log();
    for (auto& e : f.events) {
      if (e.id == "repair.end") {
        e.attrs = {{"target", "0"}, {"outcome", "Timeout: peer down"}};
      }
    }
    InvariantReport r = check_invariants(f, {});
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.violations[0].find("repair"), std::string::npos);
  }
  {  // end without begin
    EventLogFile f;
    AnalyzedEvent e;
    e.id = "repair.end";
    e.attrs = {{"target", "1"}, {"outcome", "ok"}};
    f.events.push_back(e);
    InvariantReport r = check_invariants(f, {});
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.violations[0].find("without a matching"), std::string::npos);
  }
}

SpanInfo make_span(uint64_t trace, uint64_t id, uint64_t parent, double ts,
                   double dur, const char* name) {
  SpanInfo s;
  s.trace_id = trace;
  s.span_id = id;
  s.parent_span_id = parent;
  s.ts_us = ts;
  s.dur_us = dur;
  s.name = name;
  return s;
}

TEST(CheckInvariants, SpanNesting) {
  std::vector<SpanInfo> good = {
      make_span(1, 1, 0, 0.0, 50.0, "root"),
      make_span(1, 2, 1, 10.0, 30.0, "child"),
      // Server span outliving the client span is allowed (no containment).
      make_span(1, 3, 2, 12.0, 100.0, "server"),
      // Orphaned child of an abandoned parent: allowed.
      make_span(4, 9, 4, 5.0, 1.0, "orphan"),
  };
  InvariantReport r = check_invariants(EventLogFile{}, good);
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "" : r.violations[0]);
  EXPECT_EQ(r.spans_checked, 4u);

  // Child starting before its parent is a clock/plumbing bug.
  std::vector<SpanInfo> early = {
      make_span(1, 1, 0, 10.0, 50.0, "root"),
      make_span(1, 2, 1, 5.0, 1.0, "child"),
  };
  r = check_invariants(EventLogFile{}, early);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.violations[0].find("starts before"), std::string::npos);

  // Child claiming a parent from a different trace.
  std::vector<SpanInfo> cross = {
      make_span(1, 1, 0, 0.0, 50.0, "root"),
      make_span(2, 2, 1, 10.0, 1.0, "stray"),
  };
  r = check_invariants(EventLogFile{}, cross);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.violations[0].find("trace"), std::string::npos);

  // A span rooting its own trace while claiming a (missing) parent.
  std::vector<SpanInfo> liar = {make_span(3, 3, 99, 0.0, 1.0, "liar")};
  r = check_invariants(EventLogFile{}, liar);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.violations[0].find("roots its own trace"), std::string::npos);
}

// ---- critical paths -------------------------------------------------------

TEST(CriticalPaths, WalksWidestChild) {
  std::vector<SpanInfo> spans = {
      make_span(1, 1, 0, 0.0, 100.0, "put_model"),
      make_span(1, 2, 1, 5.0, 20.0, "encode"),
      make_span(1, 3, 1, 30.0, 60.0, "rpc"),
      make_span(1, 4, 3, 35.0, 40.0, "serve"),
      make_span(9, 9, 0, 0.0, 10.0, "small"),
  };
  auto paths = critical_paths(spans);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].trace_id, 1u);  // longest first
  EXPECT_EQ(paths[0].root, "put_model");
  ASSERT_EQ(paths[0].steps.size(), 3u);
  EXPECT_EQ(paths[0].steps[1].name, "rpc");  // widest child, not "encode"
  EXPECT_DOUBLE_EQ(paths[0].steps[0].self_us, 40.0);  // 100 - 60
  EXPECT_DOUBLE_EQ(paths[0].steps[1].self_us, 20.0);  // 60 - 40
  EXPECT_DOUBLE_EQ(paths[0].steps[2].self_us, 40.0);  // leaf: all self
  EXPECT_EQ(paths[1].root, "small");

  auto capped = critical_paths(spans, 1);
  ASSERT_EQ(capped.size(), 1u);
  EXPECT_EQ(capped[0].trace_id, 1u);
}

// ---- time series ----------------------------------------------------------

TEST(TimeSeries, BucketsAndIntegratesBacklog) {
  EventLogFile f;
  auto add = [&f](double t, const char* id,
                  std::vector<std::pair<std::string, std::string>> attrs) {
    AnalyzedEvent e;
    e.time = t;
    e.id = id;
    e.attrs = std::move(attrs);
    f.events.push_back(std::move(e));
  };
  add(0.2, "hint.recorded", {{"count", "3"}});
  add(0.4, "read.served", {});
  add(1.1, "read.served", {});
  // Bucket 2 is empty but must still be emitted (continuous x-axis).
  add(3.5, "hint.replayed", {{"count", "2"}});
  add(3.6, "read.failover", {});

  auto rows = time_series(f, 1.0);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_DOUBLE_EQ(rows[0].bucket_start, 0.0);
  EXPECT_EQ(rows[0].hint_backlog, 3);
  EXPECT_EQ(rows[0].reads_served, 1u);
  EXPECT_EQ(rows[1].reads_served, 1u);
  EXPECT_EQ(rows[2].hint_backlog, 3);  // carried through the empty bucket
  EXPECT_EQ(rows[3].hint_backlog, 1);  // 3 recorded - 2 replayed
  EXPECT_EQ(rows[3].read_failovers, 1u);

  EXPECT_TRUE(time_series(f, 0.0).empty());
  EXPECT_TRUE(time_series(EventLogFile{}, 1.0).empty());
}

}  // namespace
}  // namespace evostore::obs
