// Umbrella header: the full public API of the TTMQO library.
//
// Typical use:
//
//   #include "ttmqo.h"
//
//   ttmqo::Topology topology = ttmqo::Topology::Grid(8);
//   ttmqo::Network network(topology, {}, {}, seed);
//   ttmqo::CorrelatedFieldModel field(seed);
//   ttmqo::ResultLog results;
//   ttmqo::TtmqoEngine engine(network, field, &results,
//                             {.mode = ttmqo::OptimizationMode::kTwoTier});
//   engine.SubmitQuery(ttmqo::ParseQuery(1, "SELECT ... EPOCH DURATION ..."));
//   network.sim().RunUntil(duration_ms);
//
// Individual subsystem headers can be included directly instead; see
// DESIGN.md for the module map.
#pragma once

#include "core/bs/cost_model.h"        // Eq. 1-3 transmission cost model
#include "core/bs/integration.h"       // query merge & coverage rules
#include "core/bs/result_mapper.h"     // synthetic -> user result mapping
#include "core/bs/rewriter.h"          // Algorithm 1 & 2 (tier 1)
#include "core/innet/innet_engine.h"   // tier-2 engine
#include "core/ttmqo_engine.h"         // the user-facing facade
#include "metrics/run_summary.h"       // the paper's measurements
#include "metrics/table.h"             // report formatting
#include "metrics/trace.h"             // JSONL trace writer
#include "net/network.h"               // the simulated radio network
#include "net/topology.h"              // deployments
#include "query/engine.h"              // engine interface
#include "query/parser.h"              // the TinyDB SQL dialect
#include "query/query.h"               // queries, predicates, aggregates
#include "query/result.h"              // answer streams
#include "routing/routing_tree.h"      // fixed tree + level DAG
#include "routing/semantic_tree.h"     // SRT pruning
#include "sensing/field_model.h"       // synthetic environments
#include "stats/selectivity.h"         // uniform-prior selectivity (Eq. 1)
#include "tinydb/tinydb_engine.h"      // the TinyDB baseline
#include "workload/generator.h"        // workload models
#include "workload/runner.h"           // the experiment harness
#include "workload/static_workloads.h" // WORKLOAD_A/B/C
