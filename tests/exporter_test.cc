// Exporter format tests: the metrics registry's JSON document stays valid
// whatever bytes a label value holds, and the JSONL trace escaping
// round-trips.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "json_checker.h"
#include "metrics/registry.h"
#include "metrics/trace.h"
#include "util/tracing.h"

namespace ttmqo {
namespace {

using ttmqo::testing::IsValidJson;

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Decodes the JSON string escapes our writers emit (no surrogate pairs:
/// the escaper only produces \u00XX for control bytes).
std::string JsonUnescape(std::string_view escaped) {
  std::string out;
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '\\') {
      out += escaped[i];
      continue;
    }
    ++i;
    switch (escaped[i]) {
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        const std::string hex(escaped.substr(i + 1, 4));
        out += static_cast<char>(std::stoi(hex, nullptr, 16));
        i += 4;
        break;
      }
      default: out += escaped[i];  // quote, backslash, slash
    }
  }
  return out;
}

/// Extracts the raw (still-escaped) JSON string value of `key` from a
/// serialized object.
std::string RawStringField(const std::string& json, const std::string& key) {
  const std::string anchor = "\"" + key + "\":\"";
  const std::size_t start = json.find(anchor);
  if (start == std::string::npos) return {};
  std::size_t pos = start + anchor.size();
  std::string raw;
  while (pos < json.size() && json[pos] != '"') {
    if (json[pos] == '\\') {
      raw += json[pos];
      ++pos;
    }
    raw += json[pos];
    ++pos;
  }
  return raw;
}

// ------------------------------------------------------ metrics json --

TEST(PrometheusTest, JsonExportStaysValidWithSpecialLabels) {
  MetricsRegistry registry;
  registry
      .GetCounter("m_total",
                  {{"v", "tab\there"}, {"w", "line\nbreak \"q\" b\\s"}})
      .Add(1.0);
  std::ostringstream out;
  registry.WriteJson(out);
  // The instrument key escapes only backslash, quote and newline (a tab
  // stays raw); WriteJsonString re-escapes it, so the JSON document stays
  // valid.
  EXPECT_TRUE(IsValidJson(out.str())) << out.str();
}

// ------------------------------------------------- jsonl round-trip --

TEST(JsonlRoundTripTest, EscapedStringsSurviveParsing) {
  std::string nasty = "a\"b\\c\nd\te\rf";
  nasty += static_cast<char>(0x01);
  nasty += "g/h";
  std::ostringstream out;
  {
    JsonlTraceWriter writer(out);
    TraceEvent event("obs.test.roundtrip");
    event.time = 3;
    event.With("s", nasty);
    writer.Emit(event);
  }
  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 1u);
  ASSERT_TRUE(IsValidJson(lines[0])) << lines[0];
  EXPECT_EQ(JsonUnescape(RawStringField(lines[0], "s")), nasty);
}

TEST(JsonlRoundTripTest, EveryLineParsesIndependently) {
  std::ostringstream out;
  {
    JsonlTraceWriter writer(out);
    for (int i = 0; i < 3; ++i) {
      TraceEvent event("obs.test.multi");
      event.time = i;
      event.With("note", std::string("row \"") + std::to_string(i) + "\"");
      writer.Emit(event);
    }
  }
  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) {
    EXPECT_TRUE(IsValidJson(line)) << line;
  }
}

TEST(JsonlRoundTripTest, EscapeUnescapeIsIdentity) {
  std::vector<std::string> cases = {
      "",
      "plain",
      "quote\"backslash\\slash/",
      "\n\r\t\b\f",
      "mixed \"x\\y\"\nnext\tcol",
  };
  std::string with_controls = "nul";
  with_controls += static_cast<char>(0x01);
  with_controls += static_cast<char>(0x1f);
  with_controls += " suffix";
  cases.push_back(with_controls);
  for (const std::string& original : cases) {
    std::string escaped;
    JsonEscape(original, escaped);
    EXPECT_EQ(JsonUnescape(escaped), original) << escaped;
  }
}

}  // namespace
}  // namespace ttmqo
