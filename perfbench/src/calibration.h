// A fixed reference kernel that measures how fast this host runs right now.
//
// Shared hosts change speed by tens of percent over minutes (other tenants
// competing for cores, caches and memory).  The benchmark times this kernel
// every half second between its runs and divides each host time by the
// kernel's time around it, which cancels most of that drift.  The kernel is
// the benchmark's own code and calls nothing in the program, so a change to
// the program cannot move it.  Its mix — a binary heap of event-like
// records, an ordered map, and random reads over an 8 MiB table —
// resembles a discrete-event simulation's.
#pragma once

#include <cstdint>

namespace perfbench {

/// Runs the kernel once and returns its host time in nanoseconds.
std::uint64_t TimeCalibrationKernel();

}  // namespace perfbench
