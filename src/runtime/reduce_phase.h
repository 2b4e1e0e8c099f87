// The reduce side: the parallel shuffle sort + key-run dispatch stage, the
// SYMPLE per-key summary combination with concrete replay of deferred
// segments, and the degrade accounting both share (docs/shuffle.md,
// docs/degradation.md).
//
// Part of runtime/engine.h, which declares EngineOptions and includes this
// header back; pulling the umbrella in first keeps either include order valid.
#include "runtime/engine.h"

#ifndef SYMPLE_RUNTIME_REDUCE_PHASE_H_
#define SYMPLE_RUNTIME_REDUCE_PHASE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/degrade.h"
#include "core/summary.h"
#include "runtime/dataset.h"
#include "runtime/engine_stats.h"
#include "runtime/shuffle.h"

namespace symple {

namespace internal {

// Degrade bookkeeping shared by concurrent map tasks and reduce workers. The
// RunObserver contract is single-threaded post-quiesce, so events accumulate
// here under a mutex and FoldDegrades flushes them from the coordinating
// thread after each phase's pool has quiesced.
struct DegradeEvent {
  uint32_t segment_id = 0;
  DegradeReason reason = DegradeReason::kOther;
  std::string message;
  double replay_ms = 0;  // time the reducer spent concretely replaying
};

struct DegradeAccounting {
  std::mutex mu;
  uint64_t degraded_segments = 0;
  uint64_t replayed_records = 0;
  uint64_t reasons[kDegradeReasonCount] = {};
  std::vector<DegradeEvent> events;  // sampled, capped at kMaxEvents
  static constexpr size_t kMaxEvents = 64;

  void Record(uint32_t segment_id, DegradeReason reason,
              std::string_view message, uint64_t replayed = 0,
              double replay_ms = 0) {
    std::lock_guard<std::mutex> lock(mu);
    ++degraded_segments;
    replayed_records += replayed;
    ++reasons[static_cast<size_t>(reason)];
    if (events.size() < kMaxEvents) {
      events.push_back(
          DegradeEvent{segment_id, reason, std::string(message), replay_ms});
    }
  }
};

// Folds accumulated degrade events into the run's EngineStats and notifies
// the observer. Must run once, on the coordinating thread after the reduce
// pool has quiesced.
inline void FoldDegrades(const DegradeAccounting& acct, EngineStats* stats,
                         obs::RunObserver* observer) {
  stats->degraded_segments += acct.degraded_segments;
  stats->replayed_records += acct.replayed_records;
  for (size_t i = 0; i < kDegradeReasonCount; ++i) {
    stats->degrade_reasons[i] += acct.reasons[i];
  }
  if (observer != nullptr) {
    for (const DegradeEvent& e : acct.events) {
      observer->OnSegmentDegraded(e.segment_id, DegradeReasonName(e.reason),
                                  e.message, e.replay_ms);
    }
  }
}

// One schedulable unit of reduce work: a contiguous run of one key's packets
// inside its partition, weighted by serialized bytes for LPT ordering.
struct KeyRun {
  uint32_t partition = 0;
  size_t first = 0;
  size_t last = 0;
  uint64_t bytes = 0;
  // A spilled partition (docs/spill.md) dispatches as one unit: its keys
  // stream out of the k-way disk merge, so they cannot be split into
  // independently schedulable runs. first/last are unused; bytes is the
  // whole partition's serialized weight.
  bool spilled = false;
};

// The shuffle + reduce stage over hash-partitioned mapper output:
//
//   1. Every partition is sorted independently and in parallel by
//      (key, mapper_id, record_id) — the Section 5.4 order — and its key runs
//      detected. Because a key's packets live in exactly one partition, each
//      run is that key's complete, globally ordered packet sequence.
//   2. Runs are dispatched to `slots` reduce workers largest-run-first from a
//      shared work queue with dynamic stealing (LPT scheduling), so one hot
//      group starts at once instead of pinning a reducer while the rest idle.
//
// stats->shuffle_wall_ms covers the whole shuffle stage (sorting, run
// detection, skew accounting), not just the sort. Reduce workers that receive
// zero runs report no ReduceTaskObs (no misleading 0-duration spans).
template <typename Key, typename ReduceKeyFn>
void RunShuffleAndReduce(ShuffleBuffer<Key>&& shuffle, size_t slots,
                         ReduceKeyFn reduce_key,
                         EngineStats* stats, obs::RunObserver* observer = nullptr,
                         SpillContext<Key>* spill = nullptr) {
  const size_t num_parts = shuffle.partition_count();
  const double obs_shuffle_start = observer != nullptr ? observer->NowUs() : 0;
  const auto t_shuffle = std::chrono::steady_clock::now();

  // Parallel per-partition sort + run detection. A partition with on-disk
  // runs still sorts its in-memory remainder (the merge needs it ordered)
  // but skips run detection: it dispatches as a single spilled KeyRun.
  std::vector<std::vector<KeyRun>> part_runs(num_parts);
  {
    ThreadPool pool(std::min(slots == 0 ? 1 : slots, num_parts));
    for (size_t part = 0; part < num_parts; ++part) {
      pool.Submit([part, &shuffle, &part_runs, spill] {
        // Merge the sorted runs the map workers appended (pipelined handoff)
        // rather than re-sorting from scratch.
        shuffle.SortPartition(part);
        std::vector<ShufflePacket<Key>>& packets = shuffle.partition(part);
        if (spill != nullptr && spill->has_runs(part)) {
          return;
        }
        std::vector<KeyRun>& runs = part_runs[part];
        for (size_t i = 0; i < packets.size();) {
          size_t j = i + 1;
          uint64_t run_bytes = PacketBytes(packets[i]);
          while (j < packets.size() && packets[j].key == packets[i].key) {
            run_bytes += PacketBytes(packets[j]);
            ++j;
          }
          runs.push_back(KeyRun{static_cast<uint32_t>(part), i, j, run_bytes});
          i = j;
        }
      });
    }
    pool.Wait();
  }

  // Flatten into the global dispatch queue and account partition skew.
  std::vector<KeyRun> runs;
  uint64_t total_bytes = 0;
  uint64_t max_part_bytes = 0;
  for (size_t part = 0; part < num_parts; ++part) {
    const uint64_t part_bytes = shuffle.partition_bytes(part);
    if (spill != nullptr && spill->has_runs(part)) {
      KeyRun run;
      run.partition = static_cast<uint32_t>(part);
      run.bytes = part_bytes;
      run.spilled = true;
      runs.push_back(run);
    } else {
      runs.insert(runs.end(), part_runs[part].begin(), part_runs[part].end());
    }
    total_bytes += part_bytes;
    max_part_bytes = std::max(max_part_bytes, part_bytes);
    if (observer != nullptr) {
      observer->OnShufflePartition(static_cast<uint32_t>(part), part_bytes,
                                   shuffle.partition(part).size(),
                                   part_runs[part].size());
    }
  }
  stats->reduce_partitions = num_parts;
  stats->partition_skew =
      total_bytes > 0 ? static_cast<double>(max_part_bytes) * static_cast<double>(num_parts) /
                            static_cast<double>(total_bytes)
                      : 0.0;
  // Largest-first (LPT): ties broken by (partition, first) so the dispatch
  // order — and with it the reduce-side trace — is deterministic.
  std::sort(runs.begin(), runs.end(), [](const KeyRun& a, const KeyRun& b) {
    if (a.bytes != b.bytes) {
      return a.bytes > b.bytes;
    }
    return std::pair(a.partition, a.first) < std::pair(b.partition, b.first);
  });
  // The whole shuffle stage: sorting, run detection, queue construction.
  stats->shuffle_wall_ms = MsSince(t_shuffle);
  if (observer != nullptr) {
    observer->OnPhase("shuffle_sort", obs_shuffle_start, observer->NowUs(),
                      shuffle.total_packets(), "packets");
  }

  struct ReduceTaskStats {
    double cpu_ms = 0;
    double start_us = 0;
    double end_us = 0;
    uint64_t groups = 0;
    uint64_t packets = 0;
    uint64_t bytes = 0;          // serialized bytes of the runs consumed
    uint64_t max_run_bytes = 0;  // heaviest single key run — skew attribution
    double spill_merge_ms = 0;   // wall spent streaming spilled partitions
    obs::HistogramSnapshot queue_wait_us;
  };
  const double obs_reduce_start = observer != nullptr ? observer->NowUs() : 0;
  const auto t_reduce = std::chrono::steady_clock::now();
  std::vector<ReduceTaskStats> task_stats(slots == 0 ? 1 : slots);
  std::atomic<size_t> next_run{0};
  // ThreadPool tasks must not leak exceptions: a failed disk merge is
  // captured here and rethrown from the coordinator after quiesce. (Spill
  // files are verified at write time, so this is a true I/O failure between
  // write and reduce, not silent corruption.)
  std::mutex merge_err_mu;
  std::string merge_error;
  {
    ThreadPool pool(task_stats.size());
    for (size_t r = 0; r < task_stats.size(); ++r) {
      pool.Submit([r, obs_reduce_start, &next_run, &runs, &shuffle, &reduce_key,
                   &task_stats, observer, spill, &merge_err_mu, &merge_error] {
        ReduceTaskStats& ts = task_stats[r];
        if (observer != nullptr) {
          ts.start_us = observer->NowUs();
        }
        const double cpu0 = ThreadCpuMs();
        const auto process = [&](const KeyRun& run) {
          if (observer != nullptr) {
            // Time this run spent queued before a worker picked it up.
            const double wait = observer->NowUs() - obs_reduce_start;
            ts.queue_wait_us.Record(wait > 0 ? static_cast<uint64_t>(wait) : 0);
          }
          if (run.spilled) {
            // Stream the partition's disk runs merged with its sorted
            // in-memory remainder; each key surfaces exactly once, in the
            // same global order the in-memory path would produce.
            const auto t_merge = std::chrono::steady_clock::now();
            spill->MergePartition(
                run.partition, std::move(shuffle.partition(run.partition)),
                [&](const Key& key, const ShufflePacket<Key>* kf,
                    const ShufflePacket<Key>* kl) {
                  reduce_key(key, kf, kl);
                  ++ts.groups;
                  ts.packets += static_cast<uint64_t>(kl - kf);
                });
            ts.spill_merge_ms += MsSince(t_merge);
          } else {
            auto* packets = shuffle.partition(run.partition).data();
            reduce_key(packets[run.first].key, packets + run.first, packets + run.last);
            ++ts.groups;
            ts.packets += run.last - run.first;
          }
          ts.bytes += run.bytes;
          ts.max_run_bytes = std::max(ts.max_run_bytes, run.bytes);
        };
        try {
          for (size_t k = next_run.fetch_add(1, std::memory_order_relaxed);
               k < runs.size(); k = next_run.fetch_add(1, std::memory_order_relaxed)) {
            process(runs[k]);
          }
        } catch (const SympleError& e) {
          std::lock_guard<std::mutex> lock(merge_err_mu);
          if (merge_error.empty()) {
            merge_error = e.what();
          }
        }
        ts.cpu_ms = ThreadCpuMs() - cpu0;
        if (observer != nullptr) {
          ts.end_us = observer->NowUs();
        }
      });
    }
    pool.Wait();
  }
  if (!merge_error.empty()) {
    throw SympleIoError("reduce stage failed: " + merge_error);
  }
  stats->reduce_wall_ms = MsSince(t_reduce);
  if (spill != nullptr) {
    stats->spill_runs += spill->total_runs();
    stats->spill_bytes += spill->total_bytes();
  }
  for (size_t r = 0; r < task_stats.size(); ++r) {
    stats->reduce_cpu_ms += task_stats[r].cpu_ms;
    stats->groups += task_stats[r].groups;
    stats->spill_merge_ms += task_stats[r].spill_merge_ms;
    if (observer != nullptr && task_stats[r].groups > 0) {
      // Idle workers (groups < slots) are suppressed: a 0-group worker is a
      // scheduling artifact, not a reduce task.
      obs::ReduceTaskObs t;
      t.reducer_id = static_cast<uint32_t>(r);
      t.start_us = task_stats[r].start_us;
      t.end_us = task_stats[r].end_us;
      t.cpu_ms = task_stats[r].cpu_ms;
      t.groups = task_stats[r].groups;
      t.packets = task_stats[r].packets;
      t.bytes = task_stats[r].bytes;
      t.max_run_bytes = task_stats[r].max_run_bytes;
      t.queue_wait_us = task_stats[r].queue_wait_us;
      observer->OnReduceTask(t);
    }
  }
}

// Concrete replay of one deferred segment: re-runs the UDA sequentially over
// the key's records in data.segments[segment_id], continuing from the
// already-composed prefix state. Because packets are ordered by (key,
// mapper, record) and each (mapper, key) sub-stream is replayed in input
// order, the result is byte-identical to the sequential engine.
// `start_record` skips records a budget-flushed incarnation already shipped
// as summaries (see MakeDeferredBlob); 0 replays the whole segment.
template <typename Query>
uint64_t ReplaySegmentForKey(const Dataset& data, uint32_t segment_id,
                             const typename Query::Key& key,
                             typename Query::State& state,
                             uint64_t start_record = 0) {
  SYMPLE_CHECK(segment_id < data.segments.size(),
               "deferred segment id out of range at the reducer");
  uint64_t replayed = 0;
  uint64_t rid = 0;
  LineCursor cursor(data.segments[segment_id]);
  while (const auto line = cursor.Next()) {
    const uint64_t record_id = rid++;
    if (record_id < start_record) {
      continue;
    }
    auto rec = Query::Parse(*line);
    if (rec.has_value() && rec->first == key) {
      Query::Update(state, rec->second);
      ++replayed;
    }
  }
  return replayed;
}

// Reduces one key's ordered packet run, degrading per packet: a deferred
// marker, a malformed blob, or a summary that fails validation/application
// replays that segment concretely from the prefix state instead of aborting
// the query. The SYMPLE strategy's reduce (pipeline.h).
template <typename Query>
void SympleReduceKey(const Dataset& data, ReduceMode mode,
                     const typename Query::Key& key,
                     const ShufflePacket<typename Query::Key>* first,
                     const ShufflePacket<typename Query::Key>* last,
                     typename Query::State& state, DegradeAccounting* acct) {
  using State = typename Query::State;
  for (const auto* p = first; p != last; ++p) {
    // Concrete replay covers the key's records from start_record to the end
    // of the segment — which subsumes every later packet this mapper emitted
    // for the key (possible when a memory budget flushed the segment's table
    // more than once, docs/spill.md) — so those packets are skipped here,
    // not applied on top of the replayed records.
    const auto replay = [&](DegradeReason reason, std::string_view message,
                            uint64_t start_record) {
      const auto replay_start = std::chrono::steady_clock::now();
      const uint64_t replayed = ReplaySegmentForKey<Query>(
          data, p->mapper_id, key, state, start_record);
      acct->Record(p->mapper_id, reason, message, replayed,
                   MsSince(replay_start));
      while (p + 1 != last && (p + 1)->mapper_id == p->mapper_id) {
        ++p;
      }
    };
    if (p->blob.empty()) {
      // Replay from this packet's own first record: any earlier packet from
      // the same mapper was healthy (or replay would already have consumed
      // this one), so its records must not be re-applied.
      replay(DegradeReason::kWireCorrupt, "empty segment blob at the reducer",
             p->record_id);
      continue;
    }
    if (p->blob[0] == kSegmentDeferred) {
      // DeferredConcrete marker. Parse defensively: the marker may itself
      // have crossed a hostile wire, and replay is correct regardless of
      // what it says — only the reported reason/message depend on it (a
      // scrambled marker cannot coexist with earlier healthy flushes: those
      // exist only in-process, where the marker never crosses a wire).
      DegradeReason reason = DegradeReason::kWireCorrupt;
      std::string message = "malformed deferred-segment marker";
      try {
        BinaryReader r(p->blob.data(), p->blob.size());
        r.ReadByte();
        const uint64_t seg = r.ReadVarUint();
        const uint8_t raw_reason = r.ReadByte();
        std::string msg = r.ReadString();
        const uint64_t raw_start = r.ReadVarUint();
        if (seg == p->mapper_id && raw_reason < kDegradeReasonCount &&
            raw_start == p->record_id && r.AtEnd()) {
          reason = static_cast<DegradeReason>(raw_reason);
          message = std::move(msg);
        }
      } catch (const SympleError&) {
        // keep the wire-corrupt classification
      }
      // Replay from the packet's own record_id, never the blob's copy: both
      // emission sites stamp them identically, the packet header crosses the
      // wire under its own checksum, and a flipped bit in the blob's varint
      // must not be able to skip records.
      replay(reason, message, p->record_id);
      continue;
    }
    // Symbolic summaries. Snapshot the prefix state so a failure mid-packet
    // (summary i applied, summary i+1 corrupt) can rewind and replay the
    // whole segment without double-applying.
    const State snapshot = state;
    bool ok = true;
    std::string message;
    try {
      BinaryReader r(p->blob.data(), p->blob.size());
      if (r.ReadByte() != kSegmentSymbolic) {
        throw SympleWireError("unknown segment blob kind");
      }
      const uint64_t n = r.ReadVarUint();
      if (n == 0 || n > r.remaining()) {
        throw SympleWireError("implausible summary count in segment blob");
      }
      if (mode == ReduceMode::kTreeCompose && n > 1) {
        std::vector<Summary<State>> ordered;
        ordered.reserve(n);
        for (uint64_t i = 0; i < n; ++i) {
          Summary<State> s;
          s.Deserialize(r);
          ordered.push_back(std::move(s));
        }
        if (!r.AtEnd()) {
          throw SympleWireError("trailing bytes after segment summaries");
        }
        // Composing within the packet and folding packet-by-packet is
        // identical to a global tree compose (composition is associative)
        // and keeps degrade blast radius to one segment.
        ok = ComposeAll(ordered).ApplyTo(state);
      } else {
        for (uint64_t i = 0; i < n && ok; ++i) {
          Summary<State> s;
          s.Deserialize(r);
          ok = s.ApplyTo(state);
        }
        if (ok && !r.AtEnd()) {
          throw SympleWireError("trailing bytes after segment summaries");
        }
      }
      if (!ok) {
        message = "summary rejected the prefix state";
      }
    } catch (const SympleError& e) {
      ok = false;
      message = e.what();
    }
    if (!ok) {
      state = snapshot;
      // From this packet's first record: earlier packets from this mapper
      // (prior budget-flush incarnations) applied cleanly and stay applied.
      replay(DegradeReason::kWireCorrupt, message, p->record_id);
    }
  }
}

}  // namespace internal

}  // namespace symple

#endif  // SYMPLE_RUNTIME_REDUCE_PHASE_H_
