// Mapping synthetic-query results back to user-query results.
//
// "After the sensor network returns results for the synthetic queries,
// corresponding results for user queries can be easily obtained through
// mapping and calculation" (Section 1).  For a member user query whose
// epoch fires at the synthetic result's epoch time:
//
//  * acquisition member over an acquisition synthetic: re-filter the rows
//    with the member's own predicates and project its attribute list;
//  * aggregation member over an aggregation synthetic: select the member's
//    aggregate subset (predicates are identical by construction);
//  * aggregation member over an acquisition synthetic: re-filter the raw
//    rows and compute the aggregates at the base station.
#pragma once

#include "query/query.h"
#include "query/result.h"

namespace ttmqo {

/// The answer `member` receives from one epoch result of the synthetic
/// query `synthetic_query` that serves it.  The caller answers only members
/// whose epoch divides the result's epoch time (the synthetic query runs at
/// the GCD of the member epochs, so it also fires at instants no member
/// needs), and maps a member only when the answer will be delivered.
EpochResult MapMemberResult(const EpochResult& synthetic,
                            const Query& synthetic_query, const Query& member);

}  // namespace ttmqo
