// Fleet telemetry plane: schema "emeralds.fleet.telemetry/1".
//
// Per-node, the kernel already produces everything a production operator
// wants — chain e2e/per-hop latency histograms, deadline headroom minima,
// SLO overrun counts, the per-CycleBucket attribution ledger. What was
// missing is the *mergeable* form: NodeTelemetry is the compact host-side
// block one node contributes, and FleetTelemetry is the lossless merge of
// thousands of them. Because Log2Histogram::Merge is a bucket-wise sum, the
// merged percentile tables are bucket-exact — the fleet p99 is computed
// over the union of every node's samples, not an average of per-node
// percentiles.
//
// Collection is zero-virtual-cost by construction: CollectNodeTelemetry
// only *reads* kernel state (a const Kernel&) after the run has reached its
// horizon; it never advances the virtual clock or records events. Every
// fleet run collects it, and the golden fleet digests pin the runs.

#ifndef SRC_OBS_TELEMETRY_H_
#define SRC_OBS_TELEMETRY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/log2_histogram.h"
#include "src/base/time.h"
#include "src/core/stats.h"
#include "src/hal/cycles.h"
#include "src/obs/chains.h"
#include "src/obs/trace_analyzer.h"

namespace emeralds {

class Kernel;

namespace obs {

class Json;

inline constexpr const char* kFleetTelemetrySchema = "emeralds.fleet.telemetry/1";

// One declared chain's mergeable latency record. Nodes declare the same
// chain names but may carry node-specific SLO deadlines, so the merge keeps
// the deadline range instead of a single value.
struct ChainTelemetry {
  std::string name;
  Duration deadline_min;
  Duration deadline_max;
  uint64_t completed = 0;
  uint64_t overruns = 0;
  // Instances still in flight at the node's virtual horizon (started but
  // unfinished) — previously silently absent from every surface.
  uint64_t incomplete = 0;
  Log2Histogram e2e;
  struct Hop {
    Log2Histogram queue;
    Log2Histogram exec;
  };
  std::vector<Hop> hops;  // positional per declared stage
};

// The compact block one node contributes to the fleet plane. Everything in
// it merges losslessly: counters add, histograms bucket-sum, minima take
// the min. The run totals (jobs, misses, chain overruns, low-headroom
// events) live in NodeResult and the black box's stats, not here.
struct NodeTelemetry {
  // Snapshot-ring evictions before the host drained them: the time-series
  // windows spanning these are lower bounds, so the loss is owned up to here.
  uint64_t stats_snapshot_drops = 0;
  // Deepest the headroom monitor saw any job cut into its slack.
  bool headroom_seen = false;
  Duration headroom_min;
  // Per-CycleBucket virtual-time shares (the node's attribution ledger).
  Duration cycles[kNumCycleBuckets] = {};
  Duration cycles_total;
  // Per-core ledger totals (SMP): core c's total charged virtual time.
  int num_cores = 1;
  Duration core_cycles[kMaxStatCores] = {};
  // Job response times across every task on the node.
  Log2Histogram response;
  std::vector<ChainTelemetry> chains;
};

// Fleet-wide merge of NodeTelemetry blocks plus the node with the least
// headroom, which the report surfaces.
struct FleetTelemetry {
  bool headroom_seen = false;
  Duration headroom_min;
  int headroom_min_node = -1;
  uint64_t stats_snapshot_drops_total = 0;
  Duration cycles[kNumCycleBuckets] = {};
  Duration cycles_total;
  // Widest node and the positional per-core sums across the fleet.
  int max_cores = 0;
  Duration core_cycles[kMaxStatCores] = {};
  Log2Histogram response;
  std::vector<ChainTelemetry> chains;  // merged by chain name
};

// Reads the finished kernel (plus the analyses the caller already ran for
// its oracles) into a NodeTelemetry block. Pure read: no virtual-time
// perturbation, no trace writes.
NodeTelemetry CollectNodeTelemetry(const Kernel& kernel, const TraceAnalysis& analysis,
                                   const ChainAnalysis& chains);

// Merges `node` (identified by `node_index` for the headroom minimum)
// into `fleet`. Chains merge by name; hops merge positionally.
void MergeNodeTelemetry(FleetTelemetry* fleet, const NodeTelemetry& node, int node_index);

// Histogram JSON: count/min_us/max_us/mean_us/p50_us/p90_us/p99_us/p999_us/
// total_us (a superset of what bench_json_check's RequireHistogram needs).
void AppendTelemetryHistogram(Json& j, const char* key, const Log2Histogram& h);

// Renders a NodeTelemetry body (used inside black-box bundles) or the
// fleet-wide "telemetry" section of emeralds.fleet.run/1 (schema-tagged
// emeralds.fleet.telemetry/1).
void AppendNodeTelemetrySection(Json& j, const NodeTelemetry& t);
void AppendFleetTelemetrySection(Json& j, const FleetTelemetry& t);

}  // namespace obs
}  // namespace emeralds

#endif  // SRC_OBS_TELEMETRY_H_
