#include "obs/span.h"

#include <time.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

namespace ttmqo::obs {

std::uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

namespace span_internal {
std::atomic<bool> g_enabled{true};
}  // namespace span_internal

void SetSpansEnabled(bool enabled) {
  span_internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

namespace {

/// Per-site aggregate slot, keyed by the name literal's address (two call
/// sites sharing one literal may or may not share a slot; the snapshot
/// merges by string content anyway).
struct StatSlot {
  const char* name = nullptr;
  std::uint64_t count = 0;         // scaled (estimated) executions
  std::uint64_t records = 0;       // timed executions
  std::uint64_t total_ns = 0;
  std::uint64_t total_cpu_ns = 0;
  std::uint64_t estimated_total_ns = 0;
};

/// One thread's span state: a wrapping record ring plus an open-addressed
/// aggregate table.  Single writer (the owning thread); snapshot readers
/// copy racily under the registry lock.
struct ThreadSpanBuffer {
  static constexpr std::size_t kCapacity = 4096;  // power of two
  static constexpr std::size_t kStatSlots = 256;  // power of two

  std::array<SpanRecord, kCapacity> ring;
  std::uint64_t next = 0;  ///< total records ever pushed
  std::array<StatSlot, kStatSlots> stats;
  std::uint64_t stat_overflow = 0;  ///< spans dropped from a full table
  std::uint32_t depth = 0;
  std::uint32_t tid = 0;
  std::atomic<bool> live{false};

  void Push(const SpanRecord& record) {
    ring[next & (kCapacity - 1)] = record;
    ++next;
  }

  StatSlot* FindStat(const char* name) {
    const auto key = reinterpret_cast<std::uintptr_t>(name);
    std::size_t i = (key >> 4) * 0x9e3779b9u & (kStatSlots - 1);
    for (std::size_t probes = 0; probes < kStatSlots; ++probes) {
      StatSlot& slot = stats[i];
      if (slot.name == name) return &slot;
      if (slot.name == nullptr) {
        slot.name = name;
        return &slot;
      }
      i = (i + 1) & (kStatSlots - 1);
    }
    ++stat_overflow;
    return nullptr;
  }

  void Account(const char* name, std::uint64_t dur_ns, std::uint64_t cpu_ns,
               bool has_cpu, unsigned shift) {
    StatSlot* slot = FindStat(name);
    if (slot == nullptr) return;
    slot->count += 1ull << shift;
    slot->records += 1;
    slot->total_ns += dur_ns;
    slot->estimated_total_ns += dur_ns << shift;
    if (has_cpu) slot->total_cpu_ns += cpu_ns;
  }

  void Reset() {
    next = 0;
    depth = 0;
    stat_overflow = 0;
    stats.fill(StatSlot{});
  }
};

/// Records archived from recycled buffers, with their original tid.
struct ArchivedRecord {
  std::uint32_t tid;
  SpanRecord record;
};

void MergeStat(std::map<std::string, SpanStat>& totals, const StatSlot& slot) {
  if (slot.name == nullptr || slot.count == 0) return;
  SpanStat& stat = totals[slot.name];
  if (stat.name.empty()) stat.name = slot.name;
  stat.count += slot.count;
  stat.records += slot.records;
  stat.total_ns += slot.total_ns;
  stat.total_cpu_ns += slot.total_cpu_ns;
  stat.estimated_total_ns += slot.estimated_total_ns;
}

/// Buffers are owned here and never destroyed (always reachable, so a
/// LeakSanitizer-gated CI stays clean); exited threads park their buffer on
/// the free list and later threads recycle it after its records are
/// archived and its stats folded into `archived_totals`.
struct SpanRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadSpanBuffer>> buffers;
  std::vector<ThreadSpanBuffer*> free_list;
  std::vector<ArchivedRecord> archive;
  /// Records a recycled buffer's ring overwrote before it was archived.
  std::uint64_t archived_ring_dropped = 0;
  std::uint64_t archive_dropped = 0;
  /// Per-name totals of every recycled buffer, merged by name.
  std::map<std::string, SpanStat> archived_totals;
  std::uint32_t next_tid = 0;

  static constexpr std::size_t kMaxArchive = 32768;

  ThreadSpanBuffer* Claim() {
    std::lock_guard<std::mutex> lock(mu);
    ThreadSpanBuffer* buffer;
    if (!free_list.empty()) {
      buffer = free_list.back();
      free_list.pop_back();
      ArchiveLocked(*buffer);
      buffer->Reset();
    } else {
      buffers.push_back(std::make_unique<ThreadSpanBuffer>());
      buffer = buffers.back().get();
    }
    buffer->tid = next_tid++;
    buffer->live.store(true, std::memory_order_relaxed);
    return buffer;
  }

  void Release(ThreadSpanBuffer* buffer) {
    std::lock_guard<std::mutex> lock(mu);
    buffer->live.store(false, std::memory_order_relaxed);
    free_list.push_back(buffer);
  }

  /// Preserves a recycled buffer's totals and records so a joined worker's
  /// spans stay visible in later snapshots.  The totals are exact; the
  /// records (for the Chrome trace) are the ring's newest, and bounded: the
  /// oldest half is dropped when the archive outgrows kMaxArchive.
  void ArchiveLocked(const ThreadSpanBuffer& buffer) {
    for (const StatSlot& slot : buffer.stats) {
      MergeStat(archived_totals, slot);
    }
    const std::uint64_t kept =
        std::min<std::uint64_t>(buffer.next, ThreadSpanBuffer::kCapacity);
    archived_ring_dropped += buffer.next - kept;
    for (std::uint64_t i = buffer.next - kept; i < buffer.next; ++i) {
      archive.push_back(
          {buffer.tid, buffer.ring[i & (ThreadSpanBuffer::kCapacity - 1)]});
    }
    if (archive.size() > kMaxArchive) {
      const std::size_t excess = archive.size() - kMaxArchive / 2;
      archive_dropped += excess;
      archive.erase(archive.begin(),
                    archive.begin() + static_cast<std::ptrdiff_t>(excess));
    }
  }
};

SpanRegistry& Registry() {
  static SpanRegistry* registry = new SpanRegistry();  // never destroyed
  return *registry;
}

/// Claims a buffer on first use and parks it when the thread exits.
struct ThreadSpanHandle {
  ThreadSpanBuffer* buffer = Registry().Claim();
  ~ThreadSpanHandle() { Registry().Release(buffer); }
};

ThreadSpanBuffer& CurrentBuffer() {
  static thread_local ThreadSpanHandle handle;
  return *handle.buffer;
}

}  // namespace

void SpanScope::Begin(const char* name, bool with_cpu) {
  name_ = name;
  with_cpu_ = with_cpu;
  ++CurrentBuffer().depth;
  if (with_cpu) start_cpu_ns_ = ThreadCpuNs();
  start_ns_ = NowNs();
}

void SpanScope::End() {
  const std::uint64_t end_ns = NowNs();
  ThreadSpanBuffer& buffer = CurrentBuffer();
  SpanRecord record;
  record.name = name_;
  record.start_ns = start_ns_;
  record.dur_ns = end_ns - start_ns_;
  record.depth = --buffer.depth;
  if (with_cpu_) {
    record.cpu_ns = ThreadCpuNs() - start_cpu_ns_;
    record.has_cpu = true;
  }
  buffer.Push(record);
  buffer.Account(name_, record.dur_ns, record.cpu_ns, record.has_cpu,
                 /*shift=*/0);
}

void SampledSpanScope::Begin(const char* name, unsigned shift) {
  name_ = name;
  shift_ = static_cast<std::uint8_t>(shift);
  ++CurrentBuffer().depth;
  start_ns_ = NowNs();
}

void SampledSpanScope::End() {
  const std::uint64_t end_ns = NowNs();
  ThreadSpanBuffer& buffer = CurrentBuffer();
  SpanRecord record;
  record.name = name_;
  record.start_ns = start_ns_;
  record.dur_ns = end_ns - start_ns_;
  record.depth = --buffer.depth;
  record.sample_shift = shift_;
  buffer.Push(record);
  buffer.Account(name_, record.dur_ns, 0, false, shift_);
}

SpanSnapshot CollectSpans() {
  SpanRegistry& registry = Registry();
  SpanSnapshot snapshot;
  std::lock_guard<std::mutex> lock(registry.mu);
  std::map<std::string, SpanStat> totals = registry.archived_totals;
  // Archived records of recycled buffers first, grouped by their old tid.
  std::map<std::uint32_t, ThreadSpans> archived;
  for (const ArchivedRecord& entry : registry.archive) {
    ThreadSpans& thread = archived[entry.tid];
    thread.tid = entry.tid;
    thread.records.push_back(entry.record);
  }
  for (auto& [tid, thread] : archived) {
    snapshot.threads.push_back(std::move(thread));
  }
  snapshot.ring_dropped = registry.archived_ring_dropped;
  for (const auto& buffer : registry.buffers) {
    ThreadSpans thread;
    thread.tid = buffer->tid;
    thread.live = buffer->live.load(std::memory_order_relaxed);
    const std::uint64_t next = buffer->next;
    const std::uint64_t kept =
        std::min<std::uint64_t>(next, ThreadSpanBuffer::kCapacity);
    thread.dropped = next - kept;
    snapshot.ring_dropped += thread.dropped;
    thread.records.reserve(static_cast<std::size_t>(kept));
    for (std::uint64_t i = next - kept; i < next; ++i) {
      thread.records.push_back(
          buffer->ring[i & (ThreadSpanBuffer::kCapacity - 1)]);
    }
    for (const StatSlot& slot : buffer->stats) MergeStat(totals, slot);
    snapshot.threads.push_back(std::move(thread));
  }
  snapshot.archive_dropped = registry.archive_dropped;
  snapshot.totals.reserve(totals.size());
  for (auto& [name, stat] : totals) snapshot.totals.push_back(std::move(stat));
  std::sort(snapshot.totals.begin(), snapshot.totals.end(),
            [](const SpanStat& a, const SpanStat& b) {
              if (a.total_ns != b.total_ns) return a.total_ns > b.total_ns;
              return a.name < b.name;
            });
  return snapshot;
}

void ResetSpans() {
  SpanRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& buffer : registry.buffers) buffer->Reset();
  registry.archive.clear();
  registry.archived_ring_dropped = 0;
  registry.archive_dropped = 0;
  registry.archived_totals.clear();
}

}  // namespace ttmqo::obs
