// The one map/shuffle/reduce pipeline behind the four parallel engines.
//
// The paper's baseline and SYMPLE differ in only two places (Section 6.2):
// what a mapper emits for a chunk of input, and how a reducer combines one
// key's ordered packets. That pair is a *strategy* (Baseline or Symple
// below). Where the map runs is an *executor*: threaded morsels
// (ThreadedMorsels below) or forked worker processes (ForkedWorkers,
// runtime/process_engine.h). RunPipeline owns everything else — the memory
// budget, the spill context, the hash-partitioned shuffle, the Section 5.4
// reduce order and the stats — so each public engine is one line.
//
// Part of runtime/engine.h, which declares EngineOptions and includes this
// header back; pulling the umbrella in first keeps either include order valid.
#include "runtime/engine.h"

#ifndef SYMPLE_RUNTIME_PIPELINE_H_
#define SYMPLE_RUNTIME_PIPELINE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <string_view>
#include <utility>
#include <vector>

#include "common/memory_budget.h"
#include "runtime/dataset.h"
#include "runtime/map_phase.h"
#include "runtime/reduce_phase.h"
#include "runtime/shuffle.h"

namespace symple {

namespace internal {

// Partition count for an options struct: explicit value, or one partition per
// reduce slot so every reduce worker can sort in parallel.
inline size_t ResolveReducePartitions(const EngineOptions& options) {
  if (options.reduce_partitions > 0) {
    return options.reduce_partitions;
  }
  return options.reduce_slots > 0 ? options.reduce_slots : 1;
}

// What the pipeline lends a strategy's map: the per-segment group capacity
// hint always; the run's memory budget and a sink into the shuffle only when
// the map runs in the pipeline's own process, so a budget trip can flush the
// group table mid-chunk (docs/spill.md).
template <typename Key>
struct MapBinding {
  size_t capacity_hint = 0;
  MemoryBudget* budget = nullptr;
  PacketSink<Key> sink;
};

// The map phase as an executor sees it, built by RunPipeline from the
// strategy.
template <typename Key>
struct MapPlan {
  size_t morsel_records = 0;
  // Maps in the pipeline's process: charges the budget, may flush.
  MapChunkFn<Key> map_chunk;
  // Maps in a forked worker: the child's tables live outside the parent's
  // budget and it has no shuffle to flush into.
  MapChunkFn<Key> worker_map_chunk;
  // Empty when the strategy has no degrade path (the baseline).
  DegradeChunkFn<Key> degrade_chunk;
};

// Strategy: the hand-optimized MapReduce baseline. Mappers group and ship one
// textual row per record; reducers run the UDA concretely over a key's rows
// in input order. No degrade path: a failing chunk fails the run.
template <typename Query>
struct Baseline {
  using Key = typename Query::Key;
  using Packet = ShufflePacket<Key>;

  std::vector<Packet> MapChunk(const MapBinding<Key>& bind, uint32_t segment_id,
                               std::string_view chunk, uint64_t first_record,
                               TaskStats* ts) const {
    return BaselineMapSegment<Query>(chunk, segment_id, first_record, ts,
                                     bind.capacity_hint, bind.budget, bind.sink);
  }

  typename Query::State ReduceKey(const Key& /*key*/, const Packet* first,
                                  const Packet* last, DegradeAccounting*) const {
    typename Query::State state{};
    for (const Packet* p = first; p != last; ++p) {
      BinaryReader r(p->blob.data(), p->blob.size());
      const uint64_t n = r.ReadVarUint();
      for (uint64_t i = 0; i < n; ++i) {
        TextKeyCodec<Key>::Skip(r);  // per-record textual key (Hadoop row)
        Query::Update(state, Query::DeserializeEvent(r));
      }
    }
    return state;
  }
};

// Strategy: SYMPLE. Mappers run groupby + the symbolic UDA and ship each
// (chunk, key)'s ordered summaries; reducers fold them onto the concrete
// state in (mapper, record) order, or compose them first (Section 3.6).
// Deferred or invalid segments replay concretely from the prefix state
// (docs/degradation.md).
template <typename Query>
struct Symple {
  using Key = typename Query::Key;
  using Packet = ShufflePacket<Key>;

  const Dataset& data;
  const EngineOptions& options;

  std::vector<Packet> MapChunk(const MapBinding<Key>& bind, uint32_t segment_id,
                               std::string_view chunk, uint64_t first_record,
                               TaskStats* ts) const {
    return SympleMapSegment<Query>(chunk, segment_id, first_record,
                                   options.aggregator, options.budgets, ts,
                                   bind.capacity_hint, bind.budget, bind.sink);
  }

  // The chunk's keys as DeferredConcrete markers; the reducer replays them.
  static std::vector<Packet> DegradeChunk(uint32_t segment_id, std::string_view chunk,
                                          uint64_t first_record, DegradeReason reason,
                                          std::string_view message) {
    return DeferSegmentPackets<Query>(chunk, segment_id, reason, message, first_record);
  }

  typename Query::State ReduceKey(const Key& key, const Packet* first,
                                  const Packet* last, DegradeAccounting* acct) const {
    typename Query::State state{};
    SympleReduceKey<Query>(data, options.reduce_mode, key, first, last, state, acct);
    return state;
  }
};

inline std::vector<uint32_t> AllSegmentIds(const Dataset& data) {
  std::vector<uint32_t> ids(data.segment_count());
  std::iota(ids.begin(), ids.end(), 0u);
  return ids;
}

// Executor: morsels of every segment on options.map_slots threads
// (docs/scheduling.md).
struct ThreadedMorsels {
  template <typename Key>
  void operator()(const Dataset& data, const EngineOptions& options,
                  const MapPlan<Key>& plan, ShuffleBuffer<Key>* shuffle,
                  EngineStats* stats) const {
    RunMapPhase<Key>(data.segments, AllSegmentIds(data), options.map_slots,
                     plan.morsel_records, plan.map_chunk, plan.degrade_chunk,
                     shuffle, stats, options.observer);
  }
};

// Runs one query through `strategy`'s map and reduce, with the map phase on
// `executor`. The executor hands every packet to the shuffle and folds its
// map-side counters into the stats it is given.
template <typename Query, typename Strategy, typename Executor>
RunResult<Query> RunPipeline(const Dataset& data, const EngineOptions& options,
                             const Strategy& strategy, const Executor& executor) {
  using Key = typename Query::Key;
  using Packet = ShufflePacket<Key>;

  // Forked children are reaped inside the run, so the RUSAGE_CHILDREN delta
  // covers exactly this run's worker processes.
  const ResourceScope resources;
  const auto t0 = std::chrono::steady_clock::now();
  RunResult<Query> result;
  result.stats.input_bytes = data.TotalBytes();
  result.stats.input_records = data.TotalRecords();

  // Per-segment group capacity from the record-count hint, so map tables
  // start sized instead of rehashing up from 16. Resolved before any fork;
  // forked workers inherit it.
  const size_t seg_hint = ResolveGroupCapacityHint(
      options.group_capacity_hint,
      data.segment_count() > 0 ? result.stats.input_records / data.segment_count() : 0);
  // Memory-budgeted execution (docs/spill.md): every tracked byte — map
  // tables, buffered rows, buffered shuffle packets — charges this budget;
  // crossing it flushes map tables into the shuffle and spills the shuffle's
  // heaviest partitions to disk. With no budget configured this is
  // track-only (peak_tracked_bytes) and nothing ever spills. Forked children
  // keep their own address spaces, so there only the parent's shuffle is
  // tracked; they always _exit without running destructors, so a child
  // forked after the spill directory exists can never double-unlink it.
  MemoryBudget budget(options.memory_budget_bytes);
  const size_t partitions = ResolveReducePartitions(options);
  SpillContext<Key> spill(&budget, partitions, options.spill_dir);
  ShuffleBuffer<Key> shuffle(partitions,
                             data.segment_count() * std::min<size_t>(seg_hint, 4096));
  shuffle.EnableSpill(&budget, &spill);

  const MapBinding<Key> in_process{
      seg_hint, &budget,
      [&shuffle](std::vector<Packet>&& batch) { return shuffle.AddBatch(std::move(batch)); }};
  const MapBinding<Key> in_worker{seg_hint, nullptr, {}};
  const auto bind = [&strategy](const MapBinding<Key>& binding) -> MapChunkFn<Key> {
    return [&strategy, &binding](uint32_t segment_id, std::string_view chunk,
                                 uint64_t first_record, TaskStats* ts) {
      return strategy.MapChunk(binding, segment_id, chunk, first_record, ts);
    };
  };
  MapPlan<Key> plan;
  plan.morsel_records = ResolveMorselRecords(
      options.morsel_records, result.stats.input_records, options.map_slots);
  plan.map_chunk = bind(in_process);
  plan.worker_map_chunk = bind(in_worker);
  if constexpr (requires { &Strategy::DegradeChunk; }) {
    plan.degrade_chunk = &Strategy::DegradeChunk;
  }
  executor(data, options, plan, &shuffle, &result.stats);
  result.stats.map_wall_ms = MsSince(t0);

  std::mutex out_mu;
  DegradeAccounting degrades;
  RunShuffleAndReduce<Key>(
      std::move(shuffle), options.reduce_slots,
      [&](const Key& key, const Packet* first, const Packet* last) {
        auto output = Query::Result(strategy.ReduceKey(key, first, last, &degrades), key);
        std::lock_guard<std::mutex> lock(out_mu);
        result.outputs.emplace(key, std::move(output));
      },
      &result.stats, options.observer, &spill);
  FoldDegrades(degrades, &result.stats, options.observer);

  result.stats.peak_tracked_bytes = budget.peak_bytes();
  result.stats.total_wall_ms = MsSince(t0);
  resources.Fold(&result.stats);
  return result;
}

}  // namespace internal

// Hand-optimized MapReduce baseline, map tasks on threads.
template <typename Query>
RunResult<Query> RunBaselineMapReduce(const Dataset& data,
                                      const EngineOptions& options = {}) {
  return internal::RunPipeline<Query>(data, options, internal::Baseline<Query>{},
                                      internal::ThreadedMorsels{});
}

// The SYMPLE engine, map tasks on threads.
template <typename Query>
RunResult<Query> RunSymple(const Dataset& data, const EngineOptions& options = {}) {
  return internal::RunPipeline<Query>(data, options,
                                      internal::Symple<Query>{data, options},
                                      internal::ThreadedMorsels{});
}

}  // namespace symple

#endif  // SYMPLE_RUNTIME_PIPELINE_H_
