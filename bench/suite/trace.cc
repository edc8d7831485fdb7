#include "trace.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <utility>

namespace simsub::suite::trace {
namespace {

/// Small per-thread index for the trace's `tid` field.
uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

Recorder::Recorder(bool enabled) : enabled_(enabled) {}

int64_t Recorder::ToNs(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

void Recorder::Record(SpanRecord span) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

uint64_t Recorder::RecordInterval(const char* name, uint64_t trace_id,
                                  uint64_t parent, Clock::time_point start,
                                  Clock::time_point end,
                                  std::vector<Attr> attrs) {
  if (!enabled()) return 0;
  SpanRecord span;
  span.trace_id = trace_id;
  span.span_id = NewId();
  span.parent = parent;
  span.name = name;
  span.start_ns = ToNs(start);
  span.end_ns = ToNs(end);
  span.tid = ThreadIndex();
  span.attrs = std::move(attrs);
  const uint64_t id = span.span_id;
  Record(std::move(span));
  return id;
}

std::vector<SpanRecord> Recorder::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Span::Span(Recorder& recorder, const char* name, uint64_t trace_id,
           uint64_t parent)
    : recorder_(recorder), open_(recorder.enabled()) {
  if (!open_) return;
  record_.trace_id = trace_id;
  record_.span_id = recorder.NewId();
  record_.parent = parent;
  record_.name = name;
  record_.tid = ThreadIndex();
  record_.start_ns = recorder.ToNs(Clock::now());
}

void Span::Attr(const char* key, double value) {
  if (open_) record_.attrs.push_back(Num(key, value));
}

void Span::Text(const char* key, std::string value) {
  if (open_) record_.attrs.push_back(Str(key, std::move(value)));
}

void Span::End() {
  if (!open_) return;
  open_ = false;
  record_.end_ns = recorder_.ToNs(Clock::now());
  recorder_.Record(std::move(record_));
}

std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, size_t> by_id;
  by_id.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) by_id[spans[i].span_id] = i;

  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanRecord& span : spans) {
    auto parent = by_id.find(span.parent);
    if (span.parent == 0 || parent == by_id.end()) continue;
    const SpanRecord& p = spans[parent->second];
    int64_t lo = std::max(span.start_ns, p.start_ns);
    int64_t hi = std::min(span.end_ns, p.end_ns);
    if (lo < hi) children[parent->second].push_back({lo, hi});
  }

  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

std::vector<NameTotals> TotalsByName(const std::vector<SpanRecord>& spans) {
  std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, NameTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    NameTotals& t = totals[spans[i].name];
    t.name = spans[i].name;
    ++t.count;
    t.total_ns += spans[i].duration_ns();
    t.self_ns += self[i];
  }
  std::vector<NameTotals> out;
  for (auto& [name, t] : totals) out.push_back(t);
  return out;
}

namespace {

void AppendEscaped(std::string& out, const char* text) {
  out += '"';
  for (const char* c = text; *c != '\0'; ++c) {
    switch (*c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(*c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", *c);
          out += buf;
        } else {
          out += *c;
        }
    }
  }
  out += '"';
}

void AppendNumber(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

}  // namespace

std::string ChromeJson(const std::vector<SpanRecord>& spans) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[160];
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (i > 0) out += ',';
    out += "\n{\"ph\":\"X\",\"pid\":1,\"name\":";
    AppendEscaped(out, s.name);
    std::snprintf(buf, sizeof(buf),
                  ",\"tid\":%" PRIu32 ",\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                  "\"trace_id\":%" PRIu64 ",\"span_id\":%" PRIu64
                  ",\"parent\":%" PRIu64,
                  s.tid, static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.duration_ns()) * 1e-3, s.trace_id,
                  s.span_id, s.parent);
    out += buf;
    for (const Attr& attr : s.attrs) {
      out += ',';
      AppendEscaped(out, attr.key);
      out += ':';
      if (attr.is_text) {
        AppendEscaped(out, attr.text.c_str());
      } else {
        AppendNumber(out, attr.number);
      }
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace simsub::suite::trace
