// Tests for the obs layer: span recording (nesting, sampling, the runtime
// kill switch), Chrome trace-event export (structure checked with the mini
// JSON parser), build provenance, and the bounded trace sink that keeps a
// run's tail for a postmortem, up to an exception out of the event loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_checker.h"
#include "obs/build_info.h"
#include "obs/chrome_trace.h"
#include "obs/session.h"
#include "obs/span.h"
#include "query/parser.h"
#include "util/tracing.h"
#include "workload/runner.h"
#include "workload/static_workloads.h"

namespace ttmqo {
namespace {

using obs::CollectSpans;
using obs::SpanRecord;
using obs::SpanSnapshot;
using obs::SpanStat;
using ttmqo::testing::IsValidJson;

/// Spins until the monotonic clock has visibly advanced, so span durations
/// in these tests are strictly positive even on coarse clocks.
void BurnWallTime() {
  const std::uint64_t start = obs::NowNs();
  while (obs::NowNs() - start < 50'000) {  // 50 us
  }
}

const SpanStat* FindStat(const SpanSnapshot& snapshot, const char* name) {
  for (const SpanStat& stat : snapshot.totals) {
    if (stat.name == name) return &stat;
  }
  return nullptr;
}

std::vector<SpanRecord> AllRecords(const SpanSnapshot& snapshot,
                                   const char* name) {
  std::vector<SpanRecord> records;
  for (const auto& thread : snapshot.threads) {
    for (const SpanRecord& r : thread.records) {
      if (std::strcmp(r.name, name) == 0) records.push_back(r);
    }
  }
  return records;
}

/// Splits the top-level `{...}` elements of the first JSON array stored
/// under `"key":[...]`.  Assumes the document is valid JSON (checked by the
/// caller first), so brace matching only needs to respect strings.
std::vector<std::string> ArrayObjects(const std::string& json,
                                      const std::string& key) {
  std::vector<std::string> objects;
  const std::size_t anchor = json.find("\"" + key + "\"");
  if (anchor == std::string::npos) return objects;
  std::size_t pos = json.find('[', anchor);
  if (pos == std::string::npos) return objects;
  int depth = 0;
  bool in_string = false;
  std::size_t start = 0;
  for (++pos; pos < json.size(); ++pos) {
    const char c = json[pos];
    if (in_string) {
      if (c == '\\') ++pos;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{') {
      if (depth == 0) start = pos;
      ++depth;
    } else if (c == '}') {
      if (--depth == 0) objects.push_back(json.substr(start, pos - start + 1));
    } else if (c == ']' && depth == 0) {
      break;
    }
  }
  return objects;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::filesystem::path FreshTempDir(const char* tag) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      (std::string("ttmqo_obs_test_") + tag);
  std::filesystem::remove_all(dir);
  return dir;
}

// ------------------------------------------------------------- spans --

TEST(SpanTest, RecordsAndAggregates) {
  obs::ResetSpans();
  obs::SetSpansEnabled(true);
  {
    TTMQO_SPAN("obs.test.basic");
    BurnWallTime();
  }
  const SpanSnapshot snapshot = CollectSpans();
  const SpanStat* stat = FindStat(snapshot, "obs.test.basic");
  ASSERT_NE(stat, nullptr);
  EXPECT_EQ(stat->count, 1u);
  EXPECT_EQ(stat->records, 1u);
  EXPECT_GT(stat->total_ns, 0u);
  EXPECT_EQ(stat->estimated_total_ns, stat->total_ns);  // unsampled
}

TEST(SpanTest, NestedSpansCarryDepth) {
  obs::ResetSpans();
  obs::SetSpansEnabled(true);
  {
    TTMQO_SPAN("obs.test.outer");
    TTMQO_SPAN("obs.test.inner");
    BurnWallTime();
  }
  const SpanSnapshot snapshot = CollectSpans();
  const auto outer = AllRecords(snapshot, "obs.test.outer");
  const auto inner = AllRecords(snapshot, "obs.test.inner");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_EQ(outer[0].depth, 0u);
  EXPECT_EQ(inner[0].depth, 1u);
  // The inner span is contained in the outer one.
  EXPECT_GE(inner[0].start_ns, outer[0].start_ns);
  EXPECT_LE(inner[0].dur_ns, outer[0].dur_ns);
}

TEST(SpanTest, RuntimeKillSwitchStopsRecording) {
  obs::ResetSpans();
  obs::SetSpansEnabled(false);
  {
    TTMQO_SPAN("obs.test.disabled");
  }
  obs::SetSpansEnabled(true);
  const SpanSnapshot snapshot = CollectSpans();
  EXPECT_EQ(FindStat(snapshot, "obs.test.disabled"), nullptr);
}

TEST(SpanTest, SampledSiteScalesCountsBack) {
  obs::ResetSpans();
  obs::SetSpansEnabled(true);
  // 256 executions at shift 4: exactly 16 are timed regardless of the
  // site's tick phase, and the aggregate count is scaled back to 256.
  for (int i = 0; i < 256; ++i) {
    TTMQO_SPAN_SAMPLED("obs.test.sampled", 4);
  }
  const SpanSnapshot snapshot = CollectSpans();
  const SpanStat* stat = FindStat(snapshot, "obs.test.sampled");
  ASSERT_NE(stat, nullptr);
  EXPECT_EQ(stat->records, 16u);
  EXPECT_EQ(stat->count, 256u);
  EXPECT_EQ(stat->estimated_total_ns, stat->total_ns * 16);
}

TEST(SpanTest, PhaseSpanMeasuresThreadCpu) {
  obs::ResetSpans();
  obs::SetSpansEnabled(true);
  {
    TTMQO_PHASE_SPAN("obs.test.phase");
    BurnWallTime();  // busy wait: wall time is CPU time here
  }
  const SpanSnapshot snapshot = CollectSpans();
  const auto records = AllRecords(snapshot, "obs.test.phase");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].has_cpu);
  EXPECT_GT(records[0].cpu_ns, 0u);
}

TEST(SpanTest, ResetDiscardsEverything) {
  obs::SetSpansEnabled(true);
  {
    TTMQO_SPAN("obs.test.discarded");
  }
  obs::ResetSpans();
  const SpanSnapshot snapshot = CollectSpans();
  EXPECT_EQ(FindStat(snapshot, "obs.test.discarded"), nullptr);
}

// A joined thread's spans keep their exact totals after a later thread
// recycles its buffer, though the ring kept only its newest records.
TEST(SpanTest, TotalsSurviveARecycledThreadBuffer) {
  obs::ResetSpans();
  obs::SetSpansEnabled(true);
  constexpr std::uint64_t kSpans = 5000;  // more than one ring holds
  std::thread([] {
    for (std::uint64_t i = 0; i < kSpans; ++i) {
      TTMQO_SPAN("obs.test.recycled");
    }
  }).join();
  const SpanSnapshot parked = CollectSpans();
  const SpanStat* before = FindStat(parked, "obs.test.recycled");
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->count, kSpans);
  // The newest thread to exit is the next to claim a parked buffer.
  std::thread([] { TTMQO_SPAN("obs.test.claimer"); }).join();
  const SpanSnapshot recycled = CollectSpans();
  const SpanStat* after = FindStat(recycled, "obs.test.recycled");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->count, kSpans);
  EXPECT_EQ(after->records, kSpans);
  EXPECT_EQ(after->total_ns, before->total_ns);
  ASSERT_NE(FindStat(recycled, "obs.test.claimer"), nullptr);
  // The archived records are still there for the trace.
  EXPECT_FALSE(AllRecords(recycled, "obs.test.recycled").empty());
  obs::ResetSpans();
  const SpanSnapshot reset = CollectSpans();
  EXPECT_EQ(FindStat(reset, "obs.test.recycled"), nullptr);
}

TEST(SpanTest, SnapshotReportsArchiveDrops) {
  obs::ResetSpans();
  obs::SetSpansEnabled(true);
  // One thread after another, each overflowing its 4096-record ring: every
  // later thread recycles the previous one's buffer and archives its
  // newest 4096 records, so the ninth archive passes the 32,768 bound and
  // the archive drops to its newest 16,384.
  constexpr std::uint64_t kThreads = 10;
  constexpr std::uint64_t kSpans = 5000;
  constexpr std::uint64_t kRing = 4096;
  for (std::uint64_t thread = 0; thread < kThreads; ++thread) {
    std::thread([] {
      for (std::uint64_t i = 0; i < kSpans; ++i) {
        TTMQO_SPAN("obs.test.archive_filler");
      }
    }).join();
  }
  const obs::SpanSnapshot snapshot = CollectSpans();
  EXPECT_EQ(snapshot.archive_dropped, (kThreads - 1) * kRing - 32768 / 2);
  // Every ring wrapped: nine recycled and archived, the last one parked.
  EXPECT_EQ(snapshot.ring_dropped, kThreads * (kSpans - kRing));
  std::ostringstream out;
  obs::WriteChromeTrace(out, snapshot);
  const std::string json = out.str();
  ASSERT_TRUE(IsValidJson(json));
  EXPECT_NE(json.find("\"archive_dropped\": " +
                      std::to_string(snapshot.archive_dropped)),
            std::string::npos);
  EXPECT_NE(json.find("\"ring_dropped\": " +
                      std::to_string(snapshot.ring_dropped)),
            std::string::npos);
  obs::ResetSpans();
  const obs::SpanSnapshot reset = CollectSpans();
  EXPECT_EQ(reset.archive_dropped, 0u);
  EXPECT_EQ(reset.ring_dropped, 0u);
}

// ------------------------------------------------------ chrome trace --

TEST(ChromeTraceTest, EveryEventCarriesRequiredFields) {
  obs::ResetSpans();
  obs::SetSpansEnabled(true);
  {
    TTMQO_SPAN("obs.test.trace_outer");
    TTMQO_SPAN("obs.test.trace_inner");
    BurnWallTime();
  }
  for (int i = 0; i < 64; ++i) {
    TTMQO_SPAN_SAMPLED("obs.test.trace_sampled", 6);
  }
  std::ostringstream out;
  obs::WriteChromeTrace(out, CollectSpans());
  const std::string json = out.str();
  ASSERT_TRUE(IsValidJson(json)) << json;

  const std::vector<std::string> events = ArrayObjects(json, "traceEvents");
  ASSERT_GE(events.size(), 3u);  // 2+ slices and a thread_name metadata
  bool saw_complete = false;
  bool saw_metadata = false;
  bool saw_sampled_args = false;
  for (const std::string& event : events) {
    // The required trace-event fields, on every single event.
    EXPECT_NE(event.find("\"ph\":"), std::string::npos) << event;
    EXPECT_NE(event.find("\"pid\":"), std::string::npos) << event;
    EXPECT_NE(event.find("\"tid\":"), std::string::npos) << event;
    EXPECT_NE(event.find("\"name\":"), std::string::npos) << event;
    if (event.find("\"ph\": \"X\"") != std::string::npos) {
      saw_complete = true;
      EXPECT_NE(event.find("\"ts\":"), std::string::npos) << event;
      EXPECT_NE(event.find("\"dur\":"), std::string::npos) << event;
    }
    if (event.find("\"ph\": \"M\"") != std::string::npos) saw_metadata = true;
    if (event.find("\"sampled_1_of\": 64") != std::string::npos) {
      saw_sampled_args = true;
    }
  }
  EXPECT_TRUE(saw_complete);
  EXPECT_TRUE(saw_metadata);
  EXPECT_TRUE(saw_sampled_args);
}

TEST(ChromeTraceTest, SessionWritesTraceFileOnFinish) {
  const std::filesystem::path dir = FreshTempDir("trace");
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "trace.json").string();

  obs::ObsSession::Options options;
  options.trace_chrome_path = path;
  obs::ObsSession session(options);
  obs::SetSpansEnabled(true);
  {
    TTMQO_SPAN("obs.test.session_span");
  }
  session.Finish();
  session.Finish();  // idempotent

  const std::string json = ReadFile(path);
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("obs.test.session_span"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
}

TEST(ChromeTraceTest, FileExportThrowsOnBadPath) {
  EXPECT_THROW(obs::WriteChromeTraceFile("/nonexistent_dir_7q/trace.json",
                                         CollectSpans()),
               std::invalid_argument);
}

TEST(ObsSessionTest, ConstructionFailsFastOnUnwritableTracePath) {
  // The constructor probes the trace path so a bad --trace-chrome aborts
  // before the run, from code that can still turn it into exit 1 — never
  // from the destructor (a throwing destructor would std::terminate).
  obs::ObsSession::Options options;
  options.trace_chrome_path = "/nonexistent_dir_7q/trace.json";
  EXPECT_THROW(obs::ObsSession session(std::move(options)),
               std::runtime_error);
}

TEST(ObsSessionTest, ConstructionClearsStaleState) {
  obs::SetSpansEnabled(true);
  {
    TTMQO_SPAN("obs.test.stale");
  }
  obs::ObsSession session(obs::ObsSession::Options{});
  EXPECT_EQ(FindStat(CollectSpans(), "obs.test.stale"), nullptr);
}

// -------------------------------------------------------- build info --

TEST(BuildInfoTest, PopulatedAndSerializable) {
  const obs::BuildInfo& info = obs::GetBuildInfo();
  EXPECT_FALSE(info.compiler.empty());
  EXPECT_FALSE(info.build_type.empty());
  EXPECT_GE(info.hardware_concurrency, 1u);

  std::ostringstream out;
  obs::WriteBuildInfoJson(out);
  EXPECT_TRUE(IsValidJson(out.str())) << out.str();
  EXPECT_NE(out.str().find("\"git_sha\""), std::string::npos);
  EXPECT_NE(out.str().find("\"hardware_concurrency\""), std::string::npos);
}

TEST(BuildInfoTest, SingleCoreWarningMatchesHardware) {
  std::ostringstream err;
  const bool fired = obs::WarnIfSingleCore(err);
  EXPECT_EQ(fired, obs::GetBuildInfo().hardware_concurrency <= 1);
  EXPECT_EQ(fired, !err.str().empty());
}

// ------------------------------------------------ postmortem trace tail --

/// `event` as its `--trace-out` line, for comparing events.
std::string Line(const TraceEvent& event) {
  std::ostringstream out;
  WriteTraceEventJson(out, event);
  return out.str();
}

TEST(TraceTailTest, BoundedSinkKeepsTheNewestEventsOldestFirst) {
  CollectingTraceSink tail(4);
  CollectingTraceSink all;
  for (SimTime t = 0; t < 300; ++t) {
    TraceEvent event("obs.test.tail");
    event.time = t;
    tail.Emit(event);
    all.Emit(event);
  }
  ASSERT_EQ(tail.events().size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(tail.events()[i].time, static_cast<SimTime>(296 + i));
  }
  ASSERT_EQ(all.events().size(), 300u);  // unbounded by default
  EXPECT_EQ(all.events().front().time, 0);
}

TEST(TraceTailTest, RunThatThrowsLeavesEveryEventUpToTheThrow) {
  // Terminating a query that was never submitted is rejected inside the
  // event loop, two epochs into the run.
  constexpr SimTime kThrowAt = 2 * 4096;
  RunConfig config;
  config.grid_side = 4;
  config.duration_ms = 6 * 4096;
  const std::vector<WorkloadEvent> clean = StaticSchedule(
      {ParseQuery(1, "SELECT light WHERE light > 400 EPOCH DURATION 4096")});
  std::vector<WorkloadEvent> failing = clean;
  WorkloadEvent terminate;
  terminate.time = kThrowAt;
  terminate.kind = WorkloadEvent::Kind::kTerminate;
  terminate.id = 99;
  failing.push_back(terminate);

  CollectingTraceSink sink;
  config.obs.trace = &sink;
  EXPECT_THROW(RunExperiment(config, failing), std::invalid_argument);
  CollectingTraceSink reference;
  config.obs.trace = &reference;
  RunExperiment(config, clean);

  const auto& events = sink.events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().kind, "run.start");
  EXPECT_EQ(sink.CountKind("run.end"), 0u);
  for (const TraceEvent& event : events) {
    EXPECT_LE(event.time, kThrowAt) << Line(event);
  }
  // The failing run is the clean run up to the throw: the same events in
  // the same order, and none of those before the throw's millisecond
  // missing.
  ASSERT_LE(events.size(), reference.events().size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(Line(events[i]), Line(reference.events()[i])) << "event " << i;
  }
  const std::size_t before = static_cast<std::size_t>(std::count_if(
      reference.events().begin(), reference.events().end(),
      [](const TraceEvent& e) { return e.time < kThrowAt; }));
  EXPECT_GE(events.size(), before);
  EXPECT_GT(sink.CountKind("tx"), 0u);  // the radio ran before the throw
}

}  // namespace
}  // namespace ttmqo
