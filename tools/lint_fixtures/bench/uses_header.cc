// Fixture: a production includer of src/util/used.h.
#include "util/used.h"

int main() { return fixture::Used() - 1; }
