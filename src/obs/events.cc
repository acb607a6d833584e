#include "obs/events.h"

#include <algorithm>
#include <ostream>

#include "obs/metrics.h"  // format_double / json_escape

namespace evostore::obs {

EventLog::EventLog(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  // Reserve lazily: an attached-but-idle recorder costs nothing.
}

std::string EventLog::f64(double v) { return format_double(v); }

void EventLog::record(double time, std::string_view id, uint32_t node,
                      std::initializer_list<Attr> attrs) {
  EventRecord* slot;
  if (ring_.size() < capacity_) {
    slot = &ring_.emplace_back();
  } else {
    slot = &ring_[recorded_ % capacity_];  // evict the oldest
  }
  slot->seq = recorded_++;
  slot->time = time;
  slot->id.assign(id);
  slot->node = node;
  slot->attrs.clear();
  slot->attrs.reserve(attrs.size());
  for (const Attr& a : attrs) {
    slot->attrs.emplace_back(std::string(a.first), std::string(a.second));
  }
}

size_t EventLog::size() const { return ring_.size(); }

void EventLog::clear() {
  ring_.clear();
  recorded_ = 0;
}

std::vector<const EventRecord*> EventLog::snapshot() const {
  std::vector<const EventRecord*> out;
  out.reserve(ring_.size());
  for (const EventRecord& e : ring_) out.push_back(&e);
  std::sort(out.begin(), out.end(),
            [](const EventRecord* a, const EventRecord* b) {
              return a->seq < b->seq;
            });
  return out;
}

std::vector<const EventRecord*> EventLog::sorted_for_export() const {
  std::vector<const EventRecord*> out = snapshot();
  std::sort(out.begin(), out.end(),
            [](const EventRecord* a, const EventRecord* b) {
              if (a->time != b->time) return a->time < b->time;
              if (a->id != b->id) return a->id < b->id;
              if (a->node != b->node) return a->node < b->node;
              if (a->attrs != b->attrs) return a->attrs < b->attrs;
              return a->seq < b->seq;
            });
  return out;
}

void EventLog::write_json(std::ostream& os) const {
  std::string out;
  out += "{\n";
  out += "  \"capacity\": " + std::to_string(capacity_) + ",\n";
  out += "  \"recorded\": " + std::to_string(recorded_) + ",\n";
  out += "  \"dropped\": " + std::to_string(dropped()) + ",\n";
  out += "  \"events\": [";
  bool first = true;
  for (const EventRecord* e : sorted_for_export()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"time\": " + format_double(e->time);
    out += ", \"id\": \"" + json_escape(e->id);
    out += "\", \"node\": " + std::to_string(e->node);
    out += ", \"attrs\": {";
    bool afirst = true;
    for (const auto& [k, v] : e->attrs) {
      if (!afirst) out += ", ";
      afirst = false;
      out += '"';
      out += json_escape(k);
      out += "\": \"";
      out += json_escape(v);
      out += '"';
    }
    out += "}}";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  os << out;
}

void EventLog::write_csv(std::ostream& os) const {
  std::string out;
  out += "time,id,node,attrs\n";
  for (const EventRecord* e : sorted_for_export()) {
    out += format_double(e->time);
    out += ',';
    out += e->id;  // ids are code-controlled, no commas
    out += ',';
    out += std::to_string(e->node);
    out += ",\"";
    bool afirst = true;
    for (const auto& [k, v] : e->attrs) {
      if (!afirst) out += ';';
      afirst = false;
      out += k;
      out += '=';
      // CSV quoting: double any embedded quote; attr values never hold
      // newlines (they come from ids/counters), but escape defensively.
      for (char c : v) {
        if (c == '"') out += "\"\"";
        else if (c == '\n') out += ' ';
        else out += c;
      }
    }
    out += "\"\n";
  }
  os << out;
}

}  // namespace evostore::obs
