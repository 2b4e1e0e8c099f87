// The groupby-aggregate engines.
//
// Three executions of the same query, mirroring Section 6.2's configurations:
//
//   RunSequential         — single thread, concrete UDA ("Sequential").
//   RunBaselineMapReduce  — hand-optimized MapReduce baseline: groupby in the
//                           mappers (emitting only the UDA-used fields), UDA
//                           executed concretely in the reducers. All grouped
//                           records cross the shuffle.
//   RunSymple             — the SYMPLE engine: groupby *and* symbolic UDA in
//                           the mappers; only symbolic summaries cross the
//                           shuffle; reducers compose them in order.
//
// All three run the *same* user Update function: concretely when no
// ExecContext is installed, symbolically inside SymbolicAggregator.
//
// A query is a stateless traits struct:
//
//   struct MyQuery {
//     using Key    = ...;   // ordered (<) + ValueCodec
//     using Event  = ...;   // the fields the UDA consumes
//     using State  = ...;   // symbolic aggregation state (list_fields())
//     using Output = ...;   // per-group result
//     static constexpr const char* kName;
//     static std::optional<std::pair<Key, Event>> Parse(std::string_view line);
//     static void Update(State&, const Event&);
//     static Output Result(const State&, const Key&);
//     static void SerializeEvent(const Event&, BinaryWriter&);
//     static Event DeserializeEvent(BinaryReader&);
//   };
//
// The shuffle is real: packets are serialized byte buffers, sorted by
// (key, mapper_id, record_id) exactly as Section 5.4 prescribes, and the
// reported shuffle_bytes is their total size.
//
// This header declares the engine options and results and includes the
// engines themselves:
//
//   runtime/shuffle.h       packets, ShuffleBuffer, SpillContext
//   runtime/map_phase.h     per-chunk map functions, the morsel map phase
//   runtime/reduce_phase.h  shuffle sort + key-run dispatch, SYMPLE reduce
//   runtime/sequential.h    RunSequential
//   runtime/pipeline.h      RunPipeline(strategy, executor) behind the
//                           parallel engines; RunBaselineMapReduce, RunSymple
//
// The forked engines (RunSympleForked, RunBaselineForked) are the same
// pipeline with forked map workers, in runtime/process_engine.h.
#ifndef SYMPLE_RUNTIME_ENGINE_H_
#define SYMPLE_RUNTIME_ENGINE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>

#include "common/memory_budget.h"
#include "core/aggregator.h"
#include "core/degrade.h"
#include "obs/report.h"
#include "obs/resource.h"
#include "obs/timeline.h"
#include "runtime/cost_model.h"
#include "runtime/dataset.h"
#include "runtime/engine_stats.h"

namespace symple {

// How a SYMPLE reducer combines a key's ordered summaries (Section 3.6).
enum class ReduceMode {
  // Fold each summary onto the concrete state in input order:
  // Sn(...S3(S2(C1))). One pass, no summary-summary composition.
  kSequentialFold,
  // Pairwise tree composition first (function composition is associative),
  // then a single application. This is the shape a further-parallelized
  // reduce would use.
  kTreeCompose,
};

// Resource budgets bounding symbolic execution per segment (SYMPLE engines
// only). A "segment" here is one (map chunk, group) sub-stream — the unit the
// paper's summaries describe and the unit that degrades to concrete replay
// when a budget trips (docs/degradation.md). 0 means unlimited.
struct DegradeBudgets {
  // Total symbolic paths (emitted + live) a segment may accumulate before it
  // degrades with reason path_budget.
  size_t max_paths_per_segment = 0;
  // Serialized summary bytes a segment may produce before it degrades with
  // reason summary_bytes.
  size_t max_summary_bytes_per_segment = 0;
  // Test hook: degrade every segment up front (reason forced), forcing the
  // reducer down the concrete-replay path for the whole query.
  bool force_degrade = false;
};

struct EngineOptions {
  // Worker threads executing map tasks (the paper's "mappers" axis in
  // Figure 4). Each dataset segment is one map task regardless.
  size_t map_slots = 4;
  // Worker threads executing reduce tasks.
  size_t reduce_slots = 4;
  // Summary combination strategy at the reducer (SYMPLE engine only).
  ReduceMode reduce_mode = ReduceMode::kSequentialFold;
  // Hash partitions for the parallel shuffle: mappers route each packet to
  // hash(key) % P as they emit, and each partition is sorted independently in
  // parallel. 0 = auto (one partition per reduce slot). A key's packets always
  // land in exactly one partition, so the Section 5.4 per-key composition
  // order is preserved (docs/shuffle.md).
  size_t reduce_partitions = 0;
  // Expected distinct groups per map segment: pre-sizes each segment's
  // FlatGroupMap index (and the sequential engine's global table) so
  // high-cardinality workloads do not rehash their way up from 16 buckets.
  // 0 = auto: derived from the record-count hint, capped so low-cardinality
  // workloads do not over-reserve (internal::ResolveGroupCapacityHint).
  size_t group_capacity_hint = 0;
  // Records per map morsel (docs/scheduling.md). Map segments are subdivided
  // into record-aligned morsels pulled from per-worker stealing deques, so a
  // skewed segment layout no longer strands every core behind the largest
  // segment. Each morsel's packets compose left-to-right into its segment's
  // output at the reducer (Section 5.4 order), so results stay byte-identical
  // to sequential at any morsel size. 0 = auto: sized so each map slot sees
  // roughly kMorselsPerSlotTarget morsels, floored high enough that
  // composition overhead stays negligible and small inputs keep one morsel
  // per segment.
  size_t morsel_records = 0;
  // Symbolic exploration knobs (SYMPLE engine only).
  AggregatorOptions aggregator;
  // Symbolic→concrete degradation budgets (SYMPLE engines only).
  DegradeBudgets budgets;
  // Forked-process engines only (process_engine.h). A worker that delivers no
  // bytes for worker_timeout_ms is declared hung, killed, and its incomplete
  // segments re-executed; 0 disables the watchdog. Each worker lineage gets
  // worker_retry_limit respawns (with worker_retry_backoff_ms base backoff,
  // doubled per attempt) before the parent falls back to executing the
  // remaining segments in-process.
  int worker_timeout_ms = 30000;
  int worker_retry_limit = 2;
  int worker_retry_backoff_ms = 5;
  // Memory-budgeted execution (docs/spill.md). When the run's tracked
  // allocation — group-table arenas + bucket indexes + buffered shuffle
  // packets — crosses memory_budget_bytes, map tasks flush their group
  // tables into the shuffle and the shuffle moves sorted packet runs out to
  // disk under spill_dir (TMPDIR / /tmp when empty), merging them back
  // streaming at reduce time. Output stays byte-identical to the unbudgeted
  // run. 0 = unlimited: memory is still tracked (peak_tracked_bytes) but
  // nothing ever spills.
  uint64_t memory_budget_bytes = 0;
  std::string spill_dir;
  // Optional observability sink: when set, the engine reports one observation
  // per map/reduce task (and trace spans, when the observer carries a
  // Tracer). Null means zero instrumentation overhead beyond EngineStats.
  obs::RunObserver* observer = nullptr;
};

// Fills an obs::RunReport from a finished run: engine config, the EngineStats
// snapshot, and (when an observer was attached) the per-task distributions.
inline obs::RunReport MakeRunReport(const std::string& query,
                                    const std::string& engine_name,
                                    const EngineOptions& options,
                                    const EngineStats& stats,
                                    const obs::RunObserver* observer = nullptr) {
  obs::RunReport report;
  if (observer != nullptr) {
    observer->FillReport(&report);
  }
  report.query = query;
  report.engine = engine_name;
  report.config = {
      {"map_slots", std::to_string(options.map_slots)},
      {"reduce_slots", std::to_string(options.reduce_slots)},
      {"reduce_mode",
       options.reduce_mode == ReduceMode::kSequentialFold ? "fold" : "tree"},
      {"reduce_partitions", std::to_string(options.reduce_partitions)},
      {"group_capacity_hint", std::to_string(options.group_capacity_hint)},
      {"morsel_records", std::to_string(options.morsel_records)},
      {"max_live_paths", std::to_string(options.aggregator.max_live_paths)},
      {"max_paths_per_record",
       std::to_string(options.aggregator.max_paths_per_record)},
      {"enable_merging", options.aggregator.enable_merging ? "true" : "false"},
      {"worker_timeout_ms", std::to_string(options.worker_timeout_ms)},
      {"worker_retry_limit", std::to_string(options.worker_retry_limit)},
      {"max_paths_per_segment",
       std::to_string(options.budgets.max_paths_per_segment)},
      {"max_summary_bytes_per_segment",
       std::to_string(options.budgets.max_summary_bytes_per_segment)},
      {"force_degrade", options.budgets.force_degrade ? "true" : "false"},
      {"memory_budget_bytes", std::to_string(options.memory_budget_bytes)},
      {"spill_dir", options.spill_dir},
  };
  report.totals = stats.ToRunTotals();
  report.exploration = stats.ToExplorationTotals();
  report.degrade_reasons.clear();
  for (size_t i = 0; i < kDegradeReasonCount; ++i) {
    report.degrade_reasons.emplace_back(
        DegradeReasonName(static_cast<DegradeReason>(i)),
        stats.degrade_reasons[i]);
  }

  // Run analyzer: rusage deltas, cost-model calibration, and — when a tracer
  // was attached — the span ring folded into the timeline model.
  report.rusage = stats.rusage;
  // The sequential engine runs one slot regardless of options; validating the
  // model against the configured slot count would fabricate parallelism.
  const bool sequential = engine_name == "sequential";
  report.model_error = ValidateCostModel(stats, sequential ? 1 : options.map_slots,
                                         sequential ? 1 : options.reduce_slots);
  if (observer != nullptr && observer->tracer() != nullptr) {
    obs::TimelineInputs in;
    in.total_wall_ms = stats.total_wall_ms;
    in.map_wall_ms = stats.map_wall_ms;
    in.shuffle_wall_ms = stats.shuffle_wall_ms;
    in.reduce_wall_ms = stats.reduce_wall_ms;
    in.map_cpu_ms = stats.map_cpu_ms;
    in.reduce_cpu_ms = stats.reduce_cpu_ms;
    in.partition_skew = stats.partition_skew;
    in.replayed_records = stats.replayed_records;
    report.timeline = obs::BuildRunTimeline(observer->tracer()->Spans(),
                                            observer->trace_pid(), in);
  }
  return report;
}

template <typename Query>
struct RunResult {
  std::map<typename Query::Key, typename Query::Output> outputs;
  EngineStats stats;
};

namespace internal {

inline double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

// Samples getrusage at construction and folds the delta into EngineStats when
// the run finishes. Free when obs is disabled (SampleRunResources no-ops).
class ResourceScope {
 public:
  ResourceScope() : start_(obs::SampleRunResources()) {}
  void Fold(EngineStats* stats) const {
    stats->rusage = obs::RunResourceDelta(obs::SampleRunResources(), start_);
  }

 private:
  obs::RunResourceUsage start_;
};

// Per-thread CPU time. Task CPU must be measured with the thread clock, not
// wall time: when worker threads outnumber cores, wall time per task inflates
// with time slicing and would misreport the Figure 7 CPU-usage metric.
inline double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

// --- group-table sizing ---------------------------------------------------------

// Resolves the per-table group capacity hint: an explicit
// EngineOptions::group_capacity_hint wins; otherwise the record-count hint
// (records the table will see — per segment for map tables, total for the
// sequential engine) bounds the group count from above, capped so
// low-cardinality workloads do not over-reserve index memory.
inline constexpr size_t kDefaultGroupCapacity = 1024;
inline constexpr size_t kMaxAutoGroupCapacity = 1 << 16;

inline size_t ResolveGroupCapacityHint(size_t option_hint, uint64_t records_hint) {
  if (option_hint > 0) {
    return option_hint;
  }
  if (records_hint == 0) {
    return kDefaultGroupCapacity;
  }
  return static_cast<size_t>(
      std::min<uint64_t>(records_hint, kMaxAutoGroupCapacity));
}

// Under a memory budget the table must not pre-reserve the budget away: the
// capacity hint reserves `hint * sizeof(Node)` arena bytes plus the bucket
// index up front — and the arena's first (reserved) chunk survives every
// Reset, so an oversized hint would pin a tracked footprint above the
// budget for the whole run and freeze every pass at its first check. Cap
// the hint so the initial reservation is at most ~1/8 of the budget; the
// table still grows (and the growth is released on Clear) if the groups
// really materialize.
inline size_t ClampHintToBudget(size_t hint, const MemoryBudget& budget,
                                size_t bytes_per_group) {
  if (budget.limit_bytes() == 0) {
    return hint;
  }
  const size_t bpg = std::max<size_t>(bytes_per_group, 1);
  uint64_t cap = std::max<uint64_t>(16, budget.limit_bytes() / 8 / bpg);
  // A table constructed mid-run — a late map task while earlier tasks already
  // sit at the spill watermark — must not land its whole reservation in one
  // charge the spiller never saw coming: shrink the hint to half of whatever
  // headroom is left below the watermark, down to a minimal table that grows
  // (in budget-capped chunks) only if its groups really materialize.
  const uint64_t watermark =
      budget.limit_bytes() - budget.limit_bytes() / 4;
  const uint64_t tracked = budget.tracked_bytes();
  const uint64_t headroom = tracked < watermark ? watermark - tracked : 0;
  cap = std::min(cap, std::max<uint64_t>(16, headroom / 2 / bpg));
  return static_cast<size_t>(std::min<uint64_t>(hint, cap));
}

}  // namespace internal
}  // namespace symple

// The engines. Each of these headers includes this one first for the
// declarations above.
#include "runtime/sequential.h"
#include "runtime/pipeline.h"

#endif  // SYMPLE_RUNTIME_ENGINE_H_
