#include "obs/build_info.h"

#include <unistd.h>

#include <thread>

#include "util/tracing.h"

// Configure-time stamps, injected by src/obs/CMakeLists.txt; the fallbacks
// keep non-CMake builds (and tooling that compiles single TUs) working.
#ifndef TTMQO_GIT_SHA
#define TTMQO_GIT_SHA "unknown"
#endif
#ifndef TTMQO_COMPILER_INFO
#define TTMQO_COMPILER_INFO "unknown"
#endif
#ifndef TTMQO_BUILD_TYPE
#define TTMQO_BUILD_TYPE "unknown"
#endif
#ifndef TTMQO_CXX_FLAGS
#define TTMQO_CXX_FLAGS ""
#endif

namespace ttmqo::obs {
namespace {

BuildInfo MakeBuildInfo() {
  BuildInfo info;
  info.git_sha = TTMQO_GIT_SHA;
  info.compiler = TTMQO_COMPILER_INFO;
  info.build_type = TTMQO_BUILD_TYPE;
  info.flags = TTMQO_CXX_FLAGS;
  char host[256] = {};
  if (gethostname(host, sizeof(host) - 1) == 0) info.hostname = host;
  if (info.hostname.empty()) info.hostname = "unknown";
  info.hardware_concurrency = std::thread::hardware_concurrency();
  return info;
}

void WriteField(std::ostream& out, int indent, const char* key,
                const std::string& value, bool last = false) {
  for (int i = 0; i < indent; ++i) out << ' ';
  WriteJsonString(out, key);
  out << ": ";
  WriteJsonString(out, value);
  if (!last) out << ',';
  out << '\n';
}

}  // namespace

const BuildInfo& GetBuildInfo() {
  static const BuildInfo info = MakeBuildInfo();
  return info;
}

void WriteBuildInfoJson(std::ostream& out, int indent) {
  const BuildInfo& info = GetBuildInfo();
  out << "{\n";
  WriteField(out, indent, "git_sha", info.git_sha);
  WriteField(out, indent, "compiler", info.compiler);
  WriteField(out, indent, "build_type", info.build_type);
  WriteField(out, indent, "flags", info.flags);
  WriteField(out, indent, "hostname", info.hostname);
  for (int i = 0; i < indent; ++i) out << ' ';
  out << "\"hardware_concurrency\": " << info.hardware_concurrency << ",\n";
  for (int i = 0; i < indent; ++i) out << ' ';
  // Spans are always compiled in.  The key stays because
  // perfbench/compare.py refuses to compare build blocks that differ in it.
  out << "\"spans_compiled_out\": false\n";
  for (int i = 0; i < indent - 2; ++i) out << ' ';
  out << '}';
}

bool WarnIfSingleCore(std::ostream& err) {
  if (GetBuildInfo().hardware_concurrency > 1) return false;
  err << "\n"
         "!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!\n"
         "!! WARNING: hardware_concurrency == 1 on this machine.     !!\n"
         "!! Parallel speedups measured here are meaningless; do not !!\n"
         "!! commit multi-core benchmark numbers from this host.     !!\n"
         "!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!\n\n";
  return true;
}

}  // namespace ttmqo::obs
