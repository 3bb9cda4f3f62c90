#include "obs/chrome_trace.h"

#include <fstream>
#include <iomanip>
#include <stdexcept>

#include "util/tracing.h"

namespace ttmqo::obs {
namespace {

/// The category is the dotted prefix ("tier1.insert" -> "tier1"); Perfetto
/// uses it for filtering.
std::string_view Category(std::string_view name) {
  const std::size_t dot = name.find('.');
  return dot == std::string_view::npos ? name : name.substr(0, dot);
}

/// Microseconds with nanosecond precision, as Chrome expects.
void WriteMicros(std::ostream& out, std::uint64_t ns) {
  out << ns / 1000 << '.' << std::setw(3) << std::setfill('0') << ns % 1000
      << std::setfill(' ');
}

void WriteSpanEvent(std::ostream& out, const SpanRecord& record,
                    std::uint32_t tid, bool& first) {
  if (!first) out << ",\n";
  first = false;
  out << "    {\"name\": ";
  WriteJsonString(out, record.name);
  out << ", \"cat\": ";
  WriteJsonString(out, Category(record.name));
  out << ", \"ph\": \"X\", \"ts\": ";
  WriteMicros(out, record.start_ns);
  out << ", \"dur\": ";
  WriteMicros(out, record.dur_ns);
  out << ", \"pid\": 1, \"tid\": " << tid;
  out << ", \"args\": {\"depth\": " << record.depth;
  if (record.sample_shift != 0) {
    out << ", \"sampled_1_of\": " << (1u << record.sample_shift);
  }
  if (record.has_cpu) out << ", \"cpu_ns\": " << record.cpu_ns;
  out << "}}";
}

void WriteThreadMeta(std::ostream& out, const ThreadSpans& thread,
                     bool& first) {
  if (!first) out << ",\n";
  first = false;
  out << "    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
         "\"tid\": "
      << thread.tid << ", \"args\": {\"name\": \"obs thread " << thread.tid
      << (thread.live ? "" : " (exited)") << "\"}}";
}

}  // namespace

void WriteChromeTrace(std::ostream& out, const SpanSnapshot& snapshot) {
  out << "{\n  \"displayTimeUnit\": \"ms\",\n";
  out << "  \"otherData\": {\"ring_dropped\": " << snapshot.ring_dropped
      << ", \"archive_dropped\": " << snapshot.archive_dropped << "},\n";
  out << "  \"traceEvents\": [\n";
  bool first = true;
  for (const ThreadSpans& thread : snapshot.threads) {
    if (thread.records.empty()) continue;
    WriteThreadMeta(out, thread, first);
  }
  for (const ThreadSpans& thread : snapshot.threads) {
    for (const SpanRecord& record : thread.records) {
      WriteSpanEvent(out, record, thread.tid, first);
    }
  }
  out << "\n  ]\n}\n";
}

void WriteChromeTraceFile(const std::string& path,
                          const SpanSnapshot& snapshot) {
  std::ofstream out(path);
  if (!out) {
    throw std::invalid_argument("WriteChromeTraceFile: cannot open " + path);
  }
  WriteChromeTrace(out, snapshot);
}


}  // namespace ttmqo::obs
