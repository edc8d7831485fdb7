// Span recorder, self-time computation and Chrome JSON writer, on a
// synthetic span tree whose children overlap each other and overhang their
// parent.
#include <cstdio>
#include <string>

#include "trace.h"

namespace {

using namespace simsub::suite::trace;

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL %s\n", what);
    ++failures;
  }
}

SpanRecord Make(uint64_t id, uint64_t parent, const char* name, int64_t start,
                int64_t end) {
  SpanRecord s;
  s.trace_id = 1;
  s.span_id = id;
  s.parent = parent;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

}  // namespace

int main() {
  // root [0,100]: children a [10,40] and b [30,60] overlap; c [90,120]
  // overhangs the root and counts only up to 100. a has a child [15,20].
  const std::vector<SpanRecord> spans = {
      Make(1, 0, "root", 0, 100),  Make(2, 1, "child", 10, 40),
      Make(3, 1, "child", 30, 60), Make(4, 1, "late", 90, 120),
      Make(5, 2, "leaf", 15, 20),
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  Check(self[0] == 100 - 50 - 10, "root self time excludes the union of children");
  Check(self[1] == 30 - 5, "child self time excludes its own child");
  Check(self[2] == 30, "childless span: self time is its duration");
  Check(self[3] == 30, "overhanging child keeps its own full duration");
  Check(self[4] == 5, "leaf self time");

  const std::vector<NameTotals> totals = TotalsByName(spans);
  Check(totals.size() == 4, "one total per name");
  for (const NameTotals& t : totals) {
    if (t.name == "child") {
      Check(t.count == 2 && t.total_ns == 60 && t.self_ns == 55, "child totals");
    }
  }

  const std::string json = ChromeJson(spans);
  size_t events = 0;
  for (size_t at = json.find("\"ph\":\"X\""); at != std::string::npos;
       at = json.find("\"ph\":\"X\"", at + 1)) {
    ++events;
  }
  Check(events == spans.size(), "one complete event per span");
  Check(json.find("\"traceEvents\":[") != std::string::npos, "trace-event envelope");
  Check(json.find("\"parent\":2") != std::string::npos, "parent ids in args");

  // RAII spans: nothing while disabled; parent links once enabled.
  Recorder recorder(false);
  { Span ignored(recorder, "off", 1); }
  Check(recorder.Spans().empty(), "a disabled recorder keeps nothing");
  recorder.set_enabled(true);
  {
    Span outer(recorder, "outer", 9);
    Span inner(recorder, "inner", 9, outer.id());
    inner.Attr("n", 3.0);
    inner.Text("kind", "x\"y");
  }
  const std::vector<SpanRecord> recorded = recorder.Spans();
  Check(recorded.size() == 2, "two spans recorded");
  if (recorded.size() == 2) {
    Check(recorded[0].parent == recorded[1].span_id, "inner span's parent is outer");
    Check(recorded[0].start_ns >= recorded[1].start_ns &&
              recorded[0].end_ns <= recorded[1].end_ns,
          "inner nests inside outer");
    Check(ChromeJson(recorded).find("\"kind\":\"x\\\"y\"") != std::string::npos,
          "string attributes are escaped");
  }

  if (failures == 0) std::printf("bench_suite_trace_test: OK\n");
  return failures == 0 ? 0 : 1;
}
