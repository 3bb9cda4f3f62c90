// Fixture: a header's own .cc does not count as its includer.
#include "util/orphan.h"

namespace fixture {

int Orphaned() { return 0; }

}  // namespace fixture
