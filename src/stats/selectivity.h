// Selectivity of query predicates under the uniform prior.
//
// Implements the `sel(q_i, N_k)` term of Eq. (1): the fraction of nodes
// whose readings satisfy a predicate conjunction.  Attribute independence
// is assumed (selectivities multiply), and every attribute is taken to be
// uniform over its physical range at every routing level, as in the
// paper's experiments ("we only use one distribution for all the levels,
// which actually biases against our techniques", Section 3.1.2).  The
// estimate is a pure function of the predicates, so every cost derived
// from it can be cached for as long as its query lives.
#pragma once

#include "query/predicate.h"

namespace ttmqo {

/// Fraction of an attribute-uniform population satisfying `predicates`:
/// the product, over the constrained attributes, of the share of the
/// attribute's physical range the predicate's interval overlaps.
double UniformSelectivity(const PredicateSet& predicates);

}  // namespace ttmqo
