// Fixture: the umbrella header is exempt from orphan-header, and its
// includes rescue nothing.
#pragma once

#include "util/orphan.h"
#include "util/used.h"
