// Fixture: orphan-header must fire here.  Only this header's own .cc, a
// test and the umbrella include it, and none of those counts.
#pragma once

namespace fixture {

int Orphaned();

}  // namespace fixture
