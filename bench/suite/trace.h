// In-memory span recorder for the benchmark's traced runs.
//
// Spans are taken in the benchmark's own code around calls into the
// program's public functions (one span per layer boundary). They are held in
// memory and written once, at exit, as Chrome trace-event JSON (loads in
// Perfetto and chrome://tracing). A disabled recorder makes every span a
// no-op, so untraced runs measure the program alone.
#ifndef SIMSUB_BENCH_SUITE_TRACE_H_
#define SIMSUB_BENCH_SUITE_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace simsub::suite::trace {

using Clock = std::chrono::steady_clock;

/// A numeric or string span attribute; `key` must be a string literal.
struct Attr {
  const char* key = "";
  double number = 0.0;
  bool is_text = false;
  std::string text;
};

inline Attr Num(const char* key, double value) { return {key, value, false, {}}; }
inline Attr Str(const char* key, std::string text) {
  return {key, 0.0, true, std::move(text)};
}

struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent = 0;  // 0 = root span
  const char* name = "";  // a string literal
  int64_t start_ns = 0;  // relative to the recorder's origin
  int64_t end_ns = 0;
  uint32_t tid = 0;
  std::vector<Attr> attrs;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

class Recorder {
 public:
  explicit Recorder(bool enabled);

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Turns recording on or off (traced runs measure an untraced phase
  /// first, then switch recording on).
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  int64_t ToNs(Clock::time_point t) const;

  /// Stores `span` (thread-safe). Ignored while disabled.
  void Record(SpanRecord span);

  /// Records a span over [start, end] that was timed by the caller (e.g.
  /// from a scheduled arrival) and returns its id (0 while disabled).
  uint64_t RecordInterval(const char* name, uint64_t trace_id, uint64_t parent,
                          Clock::time_point start, Clock::time_point end,
                          std::vector<Attr> attrs = {});

  /// Copy of every recorded span, in recording order.
  std::vector<SpanRecord> Spans() const;

 private:
  std::atomic<bool> enabled_;
  Clock::time_point origin_ = Clock::now();
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// RAII span: starts at construction, records at End() or destruction.
class Span {
 public:
  /// `name` must be a string literal.
  Span(Recorder& recorder, const char* name, uint64_t trace_id,
       uint64_t parent = 0);
  ~Span() { End(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return record_.span_id; }
  void Attr(const char* key, double value);
  void Text(const char* key, std::string value);
  /// Records the span now; later calls are no-ops.
  void End();

 private:
  Recorder& recorder_;
  bool open_;
  SpanRecord record_;
};

/// Self time of every span (same order as `spans`): its duration minus the
/// length of the union of its children's intervals, each clipped to the
/// parent's interval. Overlapping children (parallel work under one parent)
/// are counted once.
std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans);

/// Per-name totals: span count, summed duration, summed self time.
struct NameTotals {
  std::string name;
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};
std::vector<NameTotals> TotalsByName(const std::vector<SpanRecord>& spans);

/// Chrome trace-event JSON ("X" complete events; trace/span/parent ids and
/// attributes under "args").
std::string ChromeJson(const std::vector<SpanRecord>& spans);

}  // namespace simsub::suite::trace

#endif  // SIMSUB_BENCH_SUITE_TRACE_H_
