// Fixture: a test's include does not rescue src/util/orphan.h.
#include "util/orphan.h"

int main() { return fixture::Orphaned(); }
