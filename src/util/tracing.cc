#include "util/tracing.h"

#include <cmath>
#include <cstdio>

namespace ttmqo {

std::size_t CollectingTraceSink::CountKind(std::string_view kind) const {
  std::size_t n = 0;
  for (const TraceEvent& e : events_) {
    if (e.kind == kind) ++n;
  }
  return n;
}

void JsonEscape(std::string_view raw, std::string& out) {
  for (const char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void WriteJsonString(std::ostream& out, std::string_view raw) {
  std::string escaped;
  escaped.reserve(raw.size() + 2);
  JsonEscape(raw, escaped);
  out << '"' << escaped << '"';
}

void WriteJsonValue(std::ostream& out, const TraceValue& value) {
  std::visit(
      [&out](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, bool>) {
          out << (v ? "true" : "false");
        } else if constexpr (std::is_same_v<T, std::string>) {
          WriteJsonString(out, v);
        } else if constexpr (std::is_same_v<T, double>) {
          // JSON has no inf/nan literals.
          if (std::isfinite(v)) {
            out << v;
          } else {
            out << "null";
          }
        } else if constexpr (std::is_same_v<T, std::vector<std::int64_t>>) {
          out << '[';
          for (std::size_t i = 0; i < v.size(); ++i) {
            if (i > 0) out << ',';
            out << v[i];
          }
          out << ']';
        } else {
          out << v;
        }
      },
      value);
}

void WriteTraceEventJson(std::ostream& out, const TraceEvent& event) {
  out << "{\"event\":";
  WriteJsonString(out, event.kind);
  out << ",\"t\":" << event.time;
  for (const auto& [key, value] : event.fields) {
    out << ',';
    WriteJsonString(out, key);
    out << ':';
    WriteJsonValue(out, value);
  }
  out << '}';
}

}  // namespace ttmqo
