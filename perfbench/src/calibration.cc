#include "calibration.h"

#include <algorithm>
#include <functional>
#include <map>
#include <vector>

#include "obs/span.h"

namespace perfbench {
namespace {

struct Record {
  std::uint64_t time;
  std::uint64_t seq;
  bool operator>(const Record& other) const {
    return time != other.time ? time > other.time : seq > other.seq;
  }
};

std::uint64_t Next(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

/// The kernel; returns a checksum so the work cannot be optimized away.
std::uint64_t Kernel() {
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  std::uint64_t sum = 0;

  std::vector<Record> heap;
  heap.reserve(1 << 14);
  std::uint64_t now = 0;
  for (std::uint64_t i = 0; i < (1 << 14); ++i) {
    heap.push_back({Next(rng) % 100000, i});
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  for (std::uint64_t i = 0; i < 200000; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    now = heap.back().time;
    sum += heap.back().seq;
    heap.back() = {now + Next(rng) % 100000, i};
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }

  std::map<std::uint32_t, std::uint32_t> map;
  for (std::uint32_t i = 0; i < 60000; ++i) {
    const auto key = static_cast<std::uint32_t>(Next(rng) % 8192);
    if ((i & 1) != 0) {
      map[key] = i;
    } else if (const auto it = map.find(key); it != map.end()) {
      sum += it->second;
      map.erase(it);
    }
  }

  // Built once, so no call pays for page faults.
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(1 << 21);  // 8 MiB
    for (std::size_t i = 0; i < t.size(); ++i) {
      t[i] = static_cast<std::uint32_t>(i * 2654435761u);
    }
    return t;
  }();
  for (int i = 0; i < 400000; ++i) {
    sum += table[Next(rng) & (table.size() - 1)];
  }

  return sum;
}

}  // namespace

std::uint64_t TimeCalibrationKernel() {
  static volatile std::uint64_t sink = 0;
  const std::uint64_t start = ttmqo::obs::NowNs();
  sink = sink + Kernel();
  return ttmqo::obs::NowNs() - start;
}

}  // namespace perfbench
