#include "obs/analyze.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <unordered_map>

namespace evostore::obs {

// ---- minimal JSON ---------------------------------------------------------

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_v) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool parse(JsonValue* out, std::string* error) {
    skip_ws();
    if (!parse_value(out)) {
      *error = error_ + " at offset " + std::to_string(pos_);
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      *error = "trailing garbage at offset " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool fail(const char* what) {
    if (error_.empty()) error_ = what;
    return false;
  }

  bool consume(char c, const char* what) {
    if (pos_ >= text_.size() || text_[pos_] != c) return fail(what);
    ++pos_;
    return true;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool parse_value(JsonValue* out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return parse_object(out);
      case '[':
        return parse_array(out);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return parse_string(&out->str_v);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->bool_v = true;
        return literal("true");
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->bool_v = false;
        return literal("false");
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return literal("null");
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (!consume(':', "expected ':'")) return false;
      skip_ws();
      JsonValue value;
      if (!parse_value(&value)) return false;
      out->object_v.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return consume('}', "expected '}' or ','");
    }
  }

  bool parse_array(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue value;
      if (!parse_value(&value)) return false;
      out->array_v.push_back(std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return consume(']', "expected ']' or ','");
    }
  }

  bool parse_string(std::string* out) {
    if (!consume('"', "expected string")) return false;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad \\u escape");
            }
          }
          // UTF-8 encode the code point (surrogate pairs are not produced
          // by this repo's writers, which only escape control characters).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return fail("expected value");
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("bad number");
    out->kind = JsonValue::Kind::kNumber;
    out->num_v = v;
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

uint64_t to_u64(const std::string& s, uint64_t fallback) {
  char* end = nullptr;
  uint64_t v = std::strtoull(s.c_str(), &end, 10);
  return (end != nullptr && *end == '\0' && !s.empty()) ? v : fallback;
}

}  // namespace

bool parse_json(std::string_view text, JsonValue* out, std::string* error) {
  *out = JsonValue{};
  JsonParser parser(text);
  return parser.parse(out, error);
}

// ---- artifact loaders -----------------------------------------------------

const std::string* AnalyzedEvent::attr(std::string_view key) const {
  for (const auto& [k, v] : attrs) {
    if (k == key) return &v;
  }
  return nullptr;
}

uint64_t AnalyzedEvent::attr_u64(std::string_view key,
                                 uint64_t fallback) const {
  const std::string* v = attr(key);
  return v == nullptr ? fallback : to_u64(*v, fallback);
}

bool parse_event_log(std::string_view text, EventLogFile* out,
                     std::string* error) {
  *out = EventLogFile{};
  JsonValue root;
  if (!parse_json(text, &root, error)) return false;
  if (root.kind != JsonValue::Kind::kObject) {
    *error = "event log root is not an object";
    return false;
  }
  out->capacity = static_cast<uint64_t>(
      root.find("capacity") != nullptr ? root.find("capacity")->number_or(0)
                                       : 0);
  out->recorded = static_cast<uint64_t>(
      root.find("recorded") != nullptr ? root.find("recorded")->number_or(0)
                                       : 0);
  out->dropped = static_cast<uint64_t>(
      root.find("dropped") != nullptr ? root.find("dropped")->number_or(0)
                                      : 0);
  const JsonValue* events = root.find("events");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    *error = "event log has no \"events\" array";
    return false;
  }
  out->events.reserve(events->array_v.size());
  for (const JsonValue& e : events->array_v) {
    const JsonValue* id = e.find("id");
    if (e.kind != JsonValue::Kind::kObject || id == nullptr ||
        id->kind != JsonValue::Kind::kString) {
      *error = "event entry missing string \"id\"";
      return false;
    }
    AnalyzedEvent ev;
    ev.id = id->str_v;
    const JsonValue* time = e.find("time");
    ev.time = time != nullptr ? time->number_or(0) : 0;
    const JsonValue* node = e.find("node");
    ev.node = static_cast<uint32_t>(node != nullptr ? node->number_or(0) : 0);
    const JsonValue* attrs = e.find("attrs");
    if (attrs != nullptr && attrs->kind == JsonValue::Kind::kObject) {
      for (const auto& [k, v] : attrs->object_v) {
        if (v.kind != JsonValue::Kind::kString) {
          *error = "event attr \"" + k + "\" is not a string";
          return false;
        }
        ev.attrs.emplace_back(k, v.str_v);
      }
    }
    out->events.push_back(std::move(ev));
  }
  return true;
}

bool parse_chrome_trace(std::string_view text, std::vector<SpanInfo>* out,
                        std::string* error) {
  out->clear();
  JsonValue root;
  if (!parse_json(text, &root, error)) return false;
  const JsonValue* events = root.find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    *error = "trace has no \"traceEvents\" array";
    return false;
  }
  for (const JsonValue& e : events->array_v) {
    if (e.kind != JsonValue::Kind::kObject) continue;
    const JsonValue* ph = e.find("ph");
    if (ph == nullptr || ph->str_v != "X") continue;  // only complete spans
    SpanInfo span;
    const JsonValue* name = e.find("name");
    if (name != nullptr) span.name = name->str_v;
    const JsonValue* pid = e.find("pid");
    span.node = static_cast<uint32_t>(pid != nullptr ? pid->number_or(0) : 0);
    const JsonValue* ts = e.find("ts");
    span.ts_us = ts != nullptr ? ts->number_or(0) : 0;
    const JsonValue* dur = e.find("dur");
    span.dur_us = dur != nullptr ? dur->number_or(0) : 0;
    const JsonValue* args = e.find("args");
    if (args != nullptr && args->kind == JsonValue::Kind::kObject) {
      for (const auto& [k, v] : args->object_v) {
        if (k == "trace_id") {
          span.trace_id = static_cast<uint64_t>(v.number_or(0));
        } else if (k == "span_id") {
          span.span_id = static_cast<uint64_t>(v.number_or(0));
        } else if (k == "parent_span_id") {
          span.parent_span_id = static_cast<uint64_t>(v.number_or(0));
        } else if (v.kind == JsonValue::Kind::kString) {
          span.tags.emplace_back(k, v.str_v);
        }
      }
    }
    if (span.span_id == 0) {
      *error = "span \"" + span.name + "\" has no span_id";
      return false;
    }
    out->push_back(std::move(span));
  }
  return true;
}

// ---- invariants -----------------------------------------------------------

namespace {

// Splits "0,2,3" into provider ids. Malformed pieces parse as 0 — the
// membership check then fails loudly rather than silently passing.
std::vector<uint64_t> split_ids(const std::string& s) {
  std::vector<uint64_t> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    if (comma > start) out.push_back(to_u64(s.substr(start, comma - start), 0));
    start = comma + 1;
  }
  return out;
}

}  // namespace

InvariantReport check_invariants(const EventLogFile& events,
                                 const std::vector<SpanInfo>& spans) {
  InvariantReport report;
  auto violate = [&report](std::string message) {
    report.violations.push_back(std::move(message));
  };

  // Completeness precondition: a truncated ring can hide the very events
  // the balances below need, so refuse to certify it.
  if (events.dropped > 0) {
    violate("event log dropped " + std::to_string(events.dropped) +
            " event(s) (ring capacity " + std::to_string(events.capacity) +
            " too small): invariants cannot be certified on a truncated log");
  }

  // Per-node drain state and per-target repair state. Events arrive in
  // export order (ascending time; at equal times ".begin" sorts before
  // ".end" lexicographically, matching causality).
  std::map<uint32_t, uint64_t> open_drains;       // node -> open begins
  std::map<uint64_t, uint64_t> open_repairs;      // target -> open begins
  for (const AnalyzedEvent& e : events.events) {
    if (e.id == "hint.recorded") {
      report.hints_recorded += e.attr_u64("count");
    } else if (e.id == "hint.replayed") {
      report.hints_replayed += e.attr_u64("count");
    } else if (e.id == "hint.superseded") {
      report.hints_superseded += e.attr_u64("count");
    } else if (e.id == "hint.moved") {
      report.hints_moved += e.attr_u64("count");
    } else if (e.id == "read.served") {
      ++report.reads_served;
      const std::string* provider = e.attr("provider");
      const std::string* replicas = e.attr("replicas");
      if (provider == nullptr || replicas == nullptr) {
        violate("read.served at t=" + std::to_string(e.time) +
                " is missing provider/replicas attrs");
        continue;
      }
      uint64_t p = to_u64(*provider, ~0ull);
      std::vector<uint64_t> set = split_ids(*replicas);
      if (std::find(set.begin(), set.end(), p) == set.end()) {
        violate("read.served at t=" + std::to_string(e.time) +
                ": provider " + *provider +
                " is not in the replica set [" + *replicas + "]");
      }
    } else if (e.id == "read.failover") {
      ++report.read_failovers;
    } else if (e.id == "drain.begin") {
      ++open_drains[e.node];
      ++report.drains_checked;
    } else if (e.id == "drain.end") {
      auto it = open_drains.find(e.node);
      if (it == open_drains.end() || it->second == 0) {
        violate("drain.end on node " + std::to_string(e.node) +
                " without a matching drain.begin");
      } else {
        --it->second;
      }
      uint64_t models = e.attr_u64("models_left");
      uint64_t segments = e.attr_u64("segments_left");
      uint64_t hints = e.attr_u64("hints_left");
      if (models != 0 || segments != 0 || hints != 0) {
        violate("drain on node " + std::to_string(e.node) + " left " +
                std::to_string(models) + " model(s), " +
                std::to_string(segments) + " segment(s), " +
                std::to_string(hints) + " hint(s) behind");
      }
    } else if (e.id == "repair.begin") {
      ++open_repairs[e.attr_u64("target", ~0ull)];
      ++report.repairs_checked;
    } else if (e.id == "repair.end") {
      uint64_t target = e.attr_u64("target", ~0ull);
      auto it = open_repairs.find(target);
      if (it == open_repairs.end() || it->second == 0) {
        violate("repair.end for target " + std::to_string(target) +
                " without a matching repair.begin");
      } else {
        --it->second;
      }
      const std::string* outcome = e.attr("outcome");
      if (outcome == nullptr || *outcome != "ok") {
        violate("repair of target " + std::to_string(target) + " ended " +
                (outcome == nullptr ? std::string("without an outcome")
                                    : "with outcome \"" + *outcome + "\""));
      }
    }
  }
  for (const auto& [node, open] : open_drains) {
    if (open != 0) {
      violate("drain.begin on node " + std::to_string(node) +
              " was never closed by a drain.end");
    }
  }
  for (const auto& [target, open] : open_repairs) {
    if (open != 0) {
      violate("repair.begin for target " + std::to_string(target) +
              " was never closed by a repair.end");
    }
  }

  // Hint balance. `hint.moved` hints are re-recorded by the refuge's
  // store_hint handler, so a moved hint contributes 2x recorded and
  // eventually 1x moved + 1x (replayed|superseded): both sides stay equal.
  uint64_t resolved =
      report.hints_replayed + report.hints_superseded + report.hints_moved;
  if (report.hints_recorded != resolved) {
    violate("hint imbalance: " + std::to_string(report.hints_recorded) +
            " recorded but " + std::to_string(report.hints_replayed) +
            " replayed + " + std::to_string(report.hints_superseded) +
            " superseded + " + std::to_string(report.hints_moved) +
            " moved = " + std::to_string(resolved) +
            " (parked hints were never resolved)");
  }

  // Span nesting: parent exists, same trace, and does not start after the
  // child. NOT interval containment — a server handler span legitimately
  // outlives a client span whose deadline fired first.
  std::unordered_map<uint64_t, const SpanInfo*> by_id;
  by_id.reserve(spans.size());
  for (const SpanInfo& s : spans) by_id.emplace(s.span_id, &s);
  constexpr double kStartEpsUs = 0.002;  // trace ts resolution is 0.001us
  for (const SpanInfo& s : spans) {
    ++report.spans_checked;
    if (s.parent_span_id == 0) continue;
    auto it = by_id.find(s.parent_span_id);
    if (it == by_id.end()) {
      // An abandoned (incomplete) parent is dropped from the export while
      // its children survive — that is expected under deadline races, but
      // the child must then still carry its parent's trace id as root.
      if (s.trace_id == s.span_id) {
        violate("span \"" + s.name + "\" (id " + std::to_string(s.span_id) +
                ") roots its own trace yet claims parent " +
                std::to_string(s.parent_span_id));
      }
      continue;
    }
    const SpanInfo& parent = *it->second;
    if (parent.trace_id != s.trace_id) {
      violate("span \"" + s.name + "\" (id " + std::to_string(s.span_id) +
              ") is in trace " + std::to_string(s.trace_id) +
              " but its parent \"" + parent.name + "\" is in trace " +
              std::to_string(parent.trace_id));
    }
    if (s.ts_us + kStartEpsUs < parent.ts_us) {
      violate("span \"" + s.name + "\" (id " + std::to_string(s.span_id) +
              ") starts before its parent \"" + parent.name + "\"");
    }
  }

  return report;
}

// ---- critical paths -------------------------------------------------------

std::vector<CriticalPath> critical_paths(const std::vector<SpanInfo>& spans,
                                         size_t max_paths) {
  std::unordered_map<uint64_t, const SpanInfo*> by_id;
  std::unordered_map<uint64_t, std::vector<const SpanInfo*>> children;
  by_id.reserve(spans.size());
  for (const SpanInfo& s : spans) by_id.emplace(s.span_id, &s);
  std::vector<const SpanInfo*> roots;
  for (const SpanInfo& s : spans) {
    // A span whose parent was abandoned (dropped from the export) acts as
    // a root for breakdown purposes: it is the oldest visible ancestor.
    if (s.parent_span_id == 0 || by_id.count(s.parent_span_id) == 0) {
      roots.push_back(&s);
    } else {
      children[s.parent_span_id].push_back(&s);
    }
  }
  // Deterministic traversal: children by (duration desc, span_id asc).
  for (auto& [id, kids] : children) {
    std::sort(kids.begin(), kids.end(),
              [](const SpanInfo* a, const SpanInfo* b) {
                if (a->dur_us != b->dur_us) return a->dur_us > b->dur_us;
                return a->span_id < b->span_id;
              });
  }
  std::vector<CriticalPath> paths;
  paths.reserve(roots.size());
  for (const SpanInfo* root : roots) {
    CriticalPath path;
    path.trace_id = root->trace_id;
    path.root = root->name;
    path.total_us = root->dur_us;
    const SpanInfo* cursor = root;
    while (cursor != nullptr) {
      auto it = children.find(cursor->span_id);
      const SpanInfo* widest =
          it != children.end() && !it->second.empty() ? it->second.front()
                                                      : nullptr;
      CriticalPathStep step;
      step.name = cursor->name;
      step.node = cursor->node;
      step.dur_us = cursor->dur_us;
      step.self_us =
          cursor->dur_us - (widest != nullptr ? widest->dur_us : 0.0);
      path.steps.push_back(std::move(step));
      cursor = widest;
    }
    paths.push_back(std::move(path));
  }
  std::sort(paths.begin(), paths.end(),
            [](const CriticalPath& a, const CriticalPath& b) {
              if (a.total_us != b.total_us) return a.total_us > b.total_us;
              return a.trace_id < b.trace_id;
            });
  if (max_paths != 0 && paths.size() > max_paths) paths.resize(max_paths);
  return paths;
}

// ---- time series ----------------------------------------------------------

std::vector<SeriesRow> time_series(const EventLogFile& events,
                                   double bucket_seconds) {
  std::vector<SeriesRow> rows;
  if (bucket_seconds <= 0 || events.events.empty()) return rows;
  double max_time = 0;
  for (const AnalyzedEvent& e : events.events) {
    max_time = std::max(max_time, e.time);
  }
  size_t buckets = static_cast<size_t>(max_time / bucket_seconds) + 1;
  rows.resize(buckets);
  for (size_t i = 0; i < buckets; ++i) {
    rows[i].bucket_start = static_cast<double>(i) * bucket_seconds;
  }
  // Per-bucket deltas first; backlog integrates across buckets afterwards.
  std::vector<int64_t> backlog_delta(buckets, 0);
  for (const AnalyzedEvent& e : events.events) {
    size_t b = static_cast<size_t>(e.time / bucket_seconds);
    if (b >= buckets) b = buckets - 1;
    SeriesRow& row = rows[b];
    if (e.id == "hint.recorded") {
      backlog_delta[b] += static_cast<int64_t>(e.attr_u64("count"));
    } else if (e.id == "hint.replayed" || e.id == "hint.superseded" ||
               e.id == "hint.moved") {
      backlog_delta[b] -= static_cast<int64_t>(e.attr_u64("count"));
    } else if (e.id == "read.served") {
      ++row.reads_served;
    } else if (e.id == "read.failover") {
      ++row.read_failovers;
    }
  }
  int64_t backlog = 0;
  for (size_t i = 0; i < buckets; ++i) {
    backlog += backlog_delta[i];
    rows[i].hint_backlog = backlog;
  }
  return rows;
}

}  // namespace evostore::obs
