#include "src/vprof/analysis/chrome_trace.h"

#include <cstdio>
#include <sstream>

#include "src/vprof/json.h"

namespace vprof {

namespace {

const char* SegmentStateName(SegmentState state) {
  switch (state) {
    case SegmentState::kExecuting:
      return "executing";
    case SegmentState::kBlocked:
      return "blocked";
    case SegmentState::kQueueWait:
      return "queue_wait";
  }
  return "?";
}

double ToMicros(TimeNs t) { return static_cast<double>(t) / 1000.0; }

}  // namespace

std::string ToChromeTraceJson(const Trace& trace,
                              const ChromeTraceOptions& options) {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& event) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << event;
  };

  for (const ThreadTrace& thread : trace.threads) {
    // Thread name metadata.
    {
      std::ostringstream e;
      e << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
        << thread.tid << ",\"args\":{\"name\":\"thread " << thread.tid
        << "\"}}";
      emit(e.str());
    }
    for (const Invocation& inv : thread.invocations) {
      const std::string name =
          inv.func < trace.function_names.size()
              ? JsonEscape(trace.function_names[inv.func])
              : "?";
      std::ostringstream e;
      e << "{\"name\":\"" << name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << thread.tid << ",\"ts\":" << ToMicros(inv.start)
        << ",\"dur\":" << ToMicros(inv.end - inv.start)
        << ",\"args\":{\"sid\":" << inv.sid << "}}";
      emit(e.str());
    }
    if (options.include_segments) {
      for (const Segment& seg : thread.segments) {
        if (seg.state == SegmentState::kExecuting) {
          continue;  // executing segments are implied by the invocations
        }
        std::ostringstream e;
        e << "{\"name\":\"" << SegmentStateName(seg.state)
          << "\",\"ph\":\"X\",\"pid\":2,\"tid\":" << thread.tid
          << ",\"ts\":" << ToMicros(seg.start)
          << ",\"dur\":" << ToMicros(seg.end - seg.start)
          << ",\"args\":{\"sid\":" << seg.sid
          << ",\"waker\":" << seg.waker_tid << "}}";
        emit(e.str());
      }
    }
    if (options.include_intervals) {
      for (const IntervalEvent& event : thread.interval_events) {
        std::ostringstream e;
        e << "{\"name\":\"interval " << event.sid << "\",\"ph\":\""
          << (event.kind == IntervalEventKind::kBegin ? "b" : "e")
          << "\",\"cat\":\"interval\",\"id\":" << event.sid
          << ",\"pid\":1,\"tid\":" << thread.tid
          << ",\"ts\":" << ToMicros(event.time) << "}";
        emit(e.str());
      }
    }
  }
  out << "],\"displayTimeUnit\":\"ms\"}";
  return out.str();
}

bool WriteChromeTrace(const Trace& trace, const std::string& path,
                      const ChromeTraceOptions& options) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  const std::string json = ToChromeTraceJson(trace, options);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  return ok;
}

}  // namespace vprof
