// Fixture: orphan-header must stay quiet here; bench/uses_header.cc
// includes this header.
#pragma once

namespace fixture {

inline int Used() { return 1; }

}  // namespace fixture
