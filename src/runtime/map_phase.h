// The map side: per-chunk map functions for the baseline and SYMPLE
// strategies, and the morsel-driven map phase that schedules them
// (docs/scheduling.md).
//
// Part of runtime/engine.h, which declares EngineOptions and includes this
// header back; pulling the umbrella in first keeps either include order valid.
#include "runtime/engine.h"

#ifndef SYMPLE_RUNTIME_MAP_PHASE_H_
#define SYMPLE_RUNTIME_MAP_PHASE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.h"
#include "common/text_key.h"
#include "core/aggregator.h"
#include "core/degrade.h"
#include "core/flat_group_map.h"
#include "core/summary.h"
#include "runtime/engine_stats.h"
#include "runtime/shuffle.h"

namespace symple {

namespace internal {

// Per-task map counters: filled by the map functions below for one chunk,
// then folded per segment into EngineStats and the observer.
struct TaskStats {
  double cpu_ms = 0;
  uint64_t records = 0;  // input records scanned
  uint64_t parsed = 0;
  uint64_t packets = 0;  // shuffle packets emitted by this task
  uint64_t bytes = 0;    // serialized bytes of those packets
  ExplorationStats exploration;
  uint64_t summaries = 0;
  uint64_t summary_paths = 0;
  // Group-table allocation/probing counters (core/flat_group_map.h).
  GroupMapStats group_map;
  // Task wall span on the observer clock; 0/0 when no observer is attached.
  double start_us = 0;
  double end_us = 0;
  // Per-group fan-out within this task (SYMPLE map tasks only).
  obs::HistogramSnapshot paths_per_group;
  obs::HistogramSnapshot summaries_per_group;
};

// The map contract shared by both executors (pipeline.h):
//   (segment_id, chunk, first_record, TaskStats*) -> packets
// `chunk` is the whole segment or one record-aligned morsel of it, and
// `first_record` its first record's id within the segment.
template <typename Key>
using MapChunkFn = std::function<std::vector<ShufflePacket<Key>>(
    uint32_t, std::string_view, uint64_t, TaskStats*)>;

// Replacement packets for a chunk that cannot be mapped symbolically — a
// SympleError escaped the map body, or a forked worker's stream for it was
// corrupt: (segment_id, chunk, first_record, reason, message) -> packets.
template <typename Key>
using DegradeChunkFn = std::function<std::vector<ShufflePacket<Key>>(
    uint32_t, std::string_view, uint64_t, DegradeReason, std::string_view)>;

inline obs::ExplorationTotals ToObsExploration(const ExplorationStats& e) {
  obs::ExplorationTotals t;
  t.runs = e.runs;
  t.decisions = e.decisions;
  t.paths_produced = e.paths_produced;
  t.paths_merged = e.paths_merged;
  t.merge_rounds = e.merge_rounds;
  t.summary_restarts = e.summary_restarts;
  t.live_path_peak = e.live_path_peak;
  return t;
}

// --- morsel-driven map scheduling (docs/scheduling.md) --------------------------

// One record-aligned byte range of a segment: the unit of map scheduling.
// Splitting a segment at record boundaries is free for SYMPLE because
// summaries compose in input order (Section 3.6/5.4): each morsel's packets
// carry the morsel's global record ids, so the reducer's (key, mapper,
// record) sort composes them left-to-right exactly like the memory budget's
// mid-segment flush incarnations already do.
struct Morsel {
  uint32_t segment = 0;
  size_t byte_begin = 0;
  size_t byte_end = 0;
  uint64_t first_record = 0;  // global-in-segment id of the first record
};

// Auto-sizing: enough morsels that stealing can level a skewed layout
// (~kMorselsPerSlotTarget per slot), floored high enough that per-morsel
// costs (steal, sub-bucket sort, one summary per touched group) stay
// negligible — the floor also keeps small test datasets at one morsel per
// segment, so segment-granular semantics (degrade budgets, per-segment
// tables) are unchanged where morsels buy nothing.
inline constexpr size_t kMorselsPerSlotTarget = 8;
inline constexpr size_t kMorselMinRecords = 2048;
inline constexpr size_t kMorselMaxRecords = size_t{1} << 20;

inline size_t ResolveMorselRecords(size_t option, uint64_t total_records,
                                   size_t slots) {
  if (option > 0) {
    return option;
  }
  if (slots <= 1 || total_records == 0) {
    // Nothing to balance across: whole segments, zero chunking overhead.
    return std::numeric_limits<size_t>::max();
  }
  const uint64_t target = total_records / (slots * kMorselsPerSlotTarget);
  return static_cast<size_t>(std::clamp<uint64_t>(target, kMorselMinRecords,
                                                  kMorselMaxRecords));
}

// Splits one segment into morsels of ~target_records records each, scanning
// for newlines so every boundary is record-aligned. An empty segment still
// yields one (empty) morsel: the map function runs once per segment
// regardless, preserving per-segment task observations. A record is a line;
// a trailing chunk without '\n' counts as one record, matching LineCursor.
inline void AppendSegmentMorsels(std::string_view seg, uint32_t segment_id,
                                 size_t target_records,
                                 std::vector<Morsel>* out) {
  // A segment cannot hold more records than bytes, so a target at or above
  // the byte count means one morsel — skip the newline scan entirely.
  if (target_records >= seg.size()) {
    out->push_back(Morsel{segment_id, 0, seg.size(), 0});
    return;
  }
  size_t begin = 0;
  uint64_t first_record = 0;
  uint64_t records = 0;
  size_t pos = 0;
  while (pos < seg.size()) {
    const void* nl = memchr(seg.data() + pos, '\n', seg.size() - pos);
    pos = nl != nullptr
              ? static_cast<size_t>(static_cast<const char*>(nl) - seg.data()) + 1
              : seg.size();
    ++records;
    if (records - first_record >= target_records) {
      out->push_back(Morsel{segment_id, begin, pos, first_record});
      begin = pos;
      first_record = records;
    }
  }
  if (begin < seg.size() || out->empty() ||
      out->back().segment != segment_id) {
    out->push_back(Morsel{segment_id, begin, seg.size(), first_record});
  }
}

// The morsel-driven map phase over `segment_ids` (every segment for the
// threaded engines, the pending ones for the forked engines' in-process
// fallback), running `map_chunk` per morsel.
//
// Segments are chunked into record-aligned morsels seeded round-robin into
// per-worker stealing deques (segment s's morsels on worker s % slots, in
// order, so the common case processes each segment contiguously and
// front-to-back); an idle worker steals from the back of a loaded peer, so
// one giant segment no longer strands the other cores. Each completed
// morsel hands its packets to the shuffle immediately (AddBatch sorts and
// appends them as a run — the pipelined map→shuffle overlap), so the
// post-barrier sort is a cheap run merge.
//
// Exception safety (the ThreadPool "tasks must not throw" contract): a
// SympleError escaping the map body — e.g. a throwing user Parse — is
// caught per morsel. When `degrade` is set (SYMPLE engines) the morsel is
// replaced by its degrade packets (DeferredConcrete markers) and the run
// continues; otherwise (or when degrading itself fails) the first error is
// captured and rethrown as a typed SympleIoError from the coordinator after
// quiesce, mirroring the reduce stage — never std::terminate.
template <typename Key>
void RunMapPhase(const std::vector<std::string>& segments,
                 const std::vector<uint32_t>& segment_ids, size_t slots,
                 size_t morsel_records, const MapChunkFn<Key>& map_chunk,
                 const DegradeChunkFn<Key>& degrade, ShuffleBuffer<Key>* shuffle,
                 EngineStats* stats, obs::RunObserver* observer = nullptr) {
  const size_t workers = slots == 0 ? 1 : slots;
  std::vector<Morsel> morsels;
  morsels.reserve(segment_ids.size());
  for (const uint32_t s : segment_ids) {
    AppendSegmentMorsels(segments[s], s, morsel_records, &morsels);
  }
  stats->morsel_target_records =
      morsel_records == std::numeric_limits<size_t>::max() ? 0 : morsel_records;

  // Per-segment fold state: many morsels, one MapTaskObs per segment — the
  // timeline keeps its per-segment task semantics, with morsel counts and
  // queue waits layered on top.
  struct SegmentAgg {
    std::mutex mu;
    TaskStats ts;
    uint64_t morsel_count = 0;
    uint64_t stolen = 0;
    obs::HistogramSnapshot queue_wait_us;
  };
  std::vector<SegmentAgg> seg_aggs(segments.size());
  StealingIndexQueues queues(workers);
  for (size_t i = 0; i < morsels.size(); ++i) {
    queues.Push(morsels[i].segment % workers, i);
  }
  std::mutex map_err_mu;
  std::string map_error;
  const double obs_map_start = observer != nullptr ? observer->NowUs() : 0;
  {
    ThreadPool pool(workers);
    for (size_t w = 0; w < workers; ++w) {
      pool.Submit([w, &queues, &morsels, &segments, &seg_aggs, &map_chunk,
                   &degrade, shuffle, observer, obs_map_start, &map_err_mu,
                   &map_error] {
        size_t idx = 0;
        bool stolen = false;
        while (queues.Next(w, &idx, &stolen)) {
          const Morsel& m = morsels[idx];
          const std::string_view chunk =
              std::string_view(segments[m.segment])
                  .substr(m.byte_begin, m.byte_end - m.byte_begin);
          TaskStats mts;
          double pop_us = 0;
          if (observer != nullptr) {
            pop_us = observer->NowUs();
            mts.start_us = pop_us;
          }
          const double cpu0 = ThreadCpuMs();
          std::vector<ShufflePacket<Key>> packets;
          try {
            packets = map_chunk(m.segment, chunk, m.first_record, &mts);
          } catch (const SympleError& e) {
            bool degraded = false;
            if (degrade != nullptr) {
              try {
                packets = degrade(m.segment, chunk, m.first_record,
                                  ClassifyDegradeError(e), e.what());
                degraded = true;
              } catch (const SympleError&) {
                // fall through to the captured original error
              }
            }
            if (!degraded) {
              std::lock_guard<std::mutex> lock(map_err_mu);
              if (map_error.empty()) {
                map_error = e.what();
              }
            }
          }
          // += not =: a budget-flushed morsel already accounted its
          // mid-morsel packets through the sink (docs/spill.md).
          mts.packets += packets.size();
          // Eager handoff: this morsel's packets enter the shuffle (sorted,
          // as a run) while other morsels are still mapping.
          mts.bytes += shuffle->AddBatch(std::move(packets));
          mts.cpu_ms = ThreadCpuMs() - cpu0;
          if (observer != nullptr) {
            mts.end_us = observer->NowUs();
          }
          SegmentAgg& agg = seg_aggs[m.segment];
          std::lock_guard<std::mutex> lock(agg.mu);
          TaskStats& ts = agg.ts;
          ts.cpu_ms += mts.cpu_ms;
          ts.records += mts.records;
          ts.parsed += mts.parsed;
          ts.packets += mts.packets;
          ts.bytes += mts.bytes;
          ts.exploration += mts.exploration;
          ts.summaries += mts.summaries;
          ts.summary_paths += mts.summary_paths;
          ts.group_map += mts.group_map;
          ts.paths_per_group.Merge(mts.paths_per_group);
          ts.summaries_per_group.Merge(mts.summaries_per_group);
          if (observer != nullptr) {
            // The segment's span covers its first morsel start to its last
            // morsel end (morsels of one segment may interleave with steals).
            ts.start_us = ts.start_us == 0 ? mts.start_us
                                           : std::min(ts.start_us, mts.start_us);
            ts.end_us = std::max(ts.end_us, mts.end_us);
            const double wait = pop_us - obs_map_start;
            agg.queue_wait_us.Record(
                wait > 0 ? static_cast<uint64_t>(wait) : 0);
          }
          ++agg.morsel_count;
          if (stolen) {
            ++agg.stolen;
          }
        }
      });
    }
    pool.Wait();
  }
  if (!map_error.empty()) {
    throw SympleIoError("map stage failed: " + map_error);
  }
  stats->map_morsels += morsels.size();
  stats->morsel_steals += queues.steals();
  for (const uint32_t m : segment_ids) {
    SegmentAgg& agg = seg_aggs[m];
    const TaskStats& ts = agg.ts;
    stats->map_cpu_ms += ts.cpu_ms;
    stats->parsed_records += ts.parsed;
    stats->exploration += ts.exploration;
    stats->summaries += ts.summaries;
    stats->summary_paths += ts.summary_paths;
    stats->shuffle_bytes += ts.bytes;
    stats->group_map += ts.group_map;
    if (observer != nullptr) {
      obs::MapTaskObs t;
      t.mapper_id = m;
      t.start_us = ts.start_us;
      t.end_us = ts.end_us;
      t.cpu_ms = ts.cpu_ms;
      t.records = ts.records;
      t.parsed = ts.parsed;
      t.packets = ts.packets;
      t.bytes = ts.bytes;
      t.summaries = ts.summaries;
      t.summary_paths = ts.summary_paths;
      t.morsels = agg.morsel_count;
      t.stolen_morsels = agg.stolen;
      t.queue_wait_us = agg.queue_wait_us;
      t.exploration = ToObsExploration(ts.exploration);
      t.paths_per_group = ts.paths_per_group;
      t.summaries_per_group = ts.summaries_per_group;
      observer->OnMapTask(t);
    }
  }
}

// One baseline map task: parse + groupby one segment — or one record-aligned
// morsel of it (docs/scheduling.md): `segment` is the chunk to scan and
// `first_record` the chunk's first global record id within its segment, so
// packet record ids stay globally ordered and morsels compose at the reducer
// like whole segments. Emits textual per-record rows batched per
// (mapper, key). Shared by the threaded and the forked-process engines.
// Packets are emitted in the group table's first-seen order (deterministic;
// docs/group_map.md), and the rows inside a group buffer are in record order.
//
// With a `budget` and `sink` attached (threaded engine under a memory
// budget, docs/spill.md), the task charges its table's bytes — arena, index
// and buffered rows — and, when the budget trips, flushes the finished
// groups into the shuffle mid-segment and clears the table. Each flush
// incarnation's packet carries the incarnation's first record id, so the
// Section 5.4 (key, mapper, record) order composes the incarnations back in
// record order at the reducer.
template <typename Query>
std::vector<ShufflePacket<typename Query::Key>> BaselineMapSegment(
    std::string_view segment, uint32_t mapper_id, uint64_t first_record,
    TaskStats* ts, size_t capacity_hint = 0, MemoryBudget* budget = nullptr,
    const PacketSink<typename Query::Key>& sink = {}) {
  using Key = typename Query::Key;
  struct GroupBuffer {
    BinaryWriter rows;
    uint64_t first_record = 0;
    uint64_t count = 0;
  };
  size_t hint = ResolveGroupCapacityHint(capacity_hint, segment.size() / 64);
  if (budget != nullptr) {
    hint = ClampHintToBudget(
        hint, *budget,
        sizeof(typename FlatGroupMap<Key, GroupBuffer>::Node) + 8);
  }
  FlatGroupMap<Key, GroupBuffer> groups(hint);
  groups.SetMemoryBudget(budget);
  const bool budgeted =
      budget != nullptr && budget->limit_bytes() > 0 && sink != nullptr;

  // Row bytes live in per-group BinaryWriters the arena cannot see; they are
  // charged in 64-record strides and released when a flush clears the table.
  uint64_t charged_rows = 0;
  uint64_t pending_rows = 0;
  uint64_t since_check = 0;

  const auto build_packets = [&] {
    std::vector<ShufflePacket<Key>> out;
    out.reserve(groups.size());
    for (auto& entry : groups) {
      GroupBuffer& buf = entry.value;
      ShufflePacket<Key> p;
      p.key = entry.key;
      p.mapper_id = mapper_id;
      p.record_id = buf.first_record;
      BinaryWriter w;
      w.WriteVarUint(buf.count);
      w.WriteBytes(buf.rows.buffer().data(), buf.rows.size());
      p.blob = w.TakeBuffer();
      out.push_back(std::move(p));
    }
    return out;
  };
  const auto flush_groups = [&] {
    if (groups.size() == 0) {
      return;
    }
    std::vector<ShufflePacket<Key>> out = build_packets();
    ts->packets += out.size();
    // Release the table before the sink charges the packets: the rows now
    // live in the packet blobs, and keeping both charged would double-count
    // the flush right at the moment the run is already at its watermark.
    groups.Clear();
    budget->Release(charged_rows);
    charged_rows = 0;
    pending_rows = 0;  // cleared with the table, never charged
    ts->bytes += sink(std::move(out));
  };

  LineCursor cursor(segment);
  uint64_t rid = first_record;
  while (const auto line = cursor.Next()) {
    const uint64_t record_id = rid++;
    ++ts->records;
    auto rec = Query::Parse(*line);
    if (!rec.has_value()) {
      continue;
    }
    ++ts->parsed;
    auto [buf, inserted] = groups.GetOrEmplace(rec->first);
    if (inserted) {
      buf->first_record = record_id;
    }
    ++buf->count;
    const size_t rows_before = buf->rows.size();
    TextKeyCodec<Key>::Write(buf->rows, rec->first);
    Query::SerializeEvent(rec->second, buf->rows);
    if (budgeted) {
      pending_rows += buf->rows.size() - rows_before;
      if (inserted) {
        // Each group becomes one packet at flush time, and the sink charges
        // full PacketBytes — key, ids and length prefixes on top of the rows
        // tracked here. Pre-charging that header now keeps the flush
        // net-neutral (release rows, charge packets) instead of surfacing
        // tens of untracked bytes per group right at the watermark, which a
        // high-cardinality segment turns into a real overshoot.
        pending_rows += WireSizeOf(rec->first) + kPacketHeaderOverhead;
      }
      if (++since_check >= 64) {
        since_check = 0;
        budget->Charge(pending_rows);
        charged_rows += pending_rows;
        pending_rows = 0;
        if (budget->over()) {
          flush_groups();
        }
      }
    }
  }
  std::vector<ShufflePacket<Key>> out = build_packets();
  if (budgeted) {
    budget->Release(charged_rows);
    charged_rows = 0;
  }
  // Probe/allocation counters accumulate across Clear(), so fold the table's
  // stats exactly once, after the last incarnation.
  ts->group_map += groups.stats();
  return out;
}

// One SYMPLE map task: parse + groupby + symbolic UDA over one segment — or
// one record-aligned morsel of it, with `first_record` the chunk's offset in
// global record ids (docs/scheduling.md); summaries compose in record order
// at the reducer, so morsels are indistinguishable from budget-flush
// incarnations there. Emits one SegmentResult packet per (mapper, key) — ordered serialized
// summaries, or a DeferredConcrete marker when the group's symbolic
// execution hit a budget or a declared limitation. Degradation is segment-
// granular: other groups in the same chunk keep their symbolic summaries.
// With a `budget` and `sink` attached (threaded engine under a memory
// budget, docs/spill.md), the task flushes mid-segment: healthy groups emit
// their summaries-so-far into the shuffle and restart a fresh incarnation
// (summary composition is associative, so incarnations compose in record
// order at the reducer exactly like separate mappers' packets). Groups that
// cannot serialize mid-exploration degrade with reason memory_budget and
// move to a side map — the flush must release the table either way — and
// their deferred markers, carrying the incarnation's start record, are
// emitted once at segment end.
template <typename Query>
std::vector<ShufflePacket<typename Query::Key>> SympleMapSegment(
    std::string_view segment, uint32_t mapper_id, uint64_t first_record,
    const AggregatorOptions& options, const DegradeBudgets& budgets,
    TaskStats* ts, size_t capacity_hint = 0, MemoryBudget* budget = nullptr,
    const PacketSink<typename Query::Key>& sink = {}) {
  using Key = typename Query::Key;
  using State = typename Query::State;
  using UpdateFn = void (*)(State&, const typename Query::Event&);
  using Aggregator = SymbolicAggregator<State, typename Query::Event, UpdateFn>;
  struct GroupAgg {
    explicit GroupAgg(const AggregatorOptions& agg_options)
        : agg(&Query::Update, agg_options) {}
    Aggregator agg;
    uint64_t first_record = 0;
    bool degraded = false;
    DegradeReason reason = DegradeReason::kOther;
    std::string message;
  };
  // Degraded groups evicted by a budget flush: their records are skipped for
  // the rest of the segment and one marker per key is emitted at the end,
  // replaying from the incarnation that degraded.
  struct SideDegrade {
    DegradeReason reason;
    std::string message;
    uint64_t start_record;
  };
  size_t hint = ResolveGroupCapacityHint(capacity_hint, segment.size() / 64);
  if (budget != nullptr) {
    hint = ClampHintToBudget(
        hint, *budget,
        sizeof(typename FlatGroupMap<Key, GroupAgg>::Node) + 8);
  }
  FlatGroupMap<Key, GroupAgg> groups(hint);
  groups.SetMemoryBudget(budget);
  const bool budgeted =
      budget != nullptr && budget->limit_bytes() > 0 && sink != nullptr;
  std::map<Key, SideDegrade> degraded;
  uint64_t since_check = 0;

  // Emits the table's groups as packets: symbolic summaries for healthy
  // groups; degraded groups either join the side map (mid-segment flush) or
  // emit their deferred markers (final). A group whose summaries fail to
  // serialize at flush time degrades with reason memory_budget — its
  // already-fed records cannot leave the table any other way.
  const auto emit_groups = [&](bool final_emit) {
    std::vector<ShufflePacket<Key>> out;
    out.reserve(groups.size() + (final_emit ? degraded.size() : 0));
    for (auto& entry : groups) {
      GroupAgg& group = entry.value;
      ts->exploration += group.agg.stats();
      if (!group.degraded) {
        try {
          std::vector<Summary<State>> summaries = group.agg.Finish();
          BinaryWriter body;
          uint64_t group_paths = 0;
          for (const Summary<State>& s : summaries) {
            group_paths += s.path_count();
            s.Serialize(body);
          }
          if (budgets.max_summary_bytes_per_segment > 0 &&
              body.size() > budgets.max_summary_bytes_per_segment) {
            group.degraded = true;
            group.reason = DegradeReason::kSummaryBytes;
            group.message = "segment summary of " + std::to_string(body.size()) +
                            " bytes exceeded max_summary_bytes_per_segment = " +
                            std::to_string(budgets.max_summary_bytes_per_segment);
          } else {
            ts->summaries += summaries.size();
            ts->summaries_per_group.Record(summaries.size());
            ts->summary_paths += group_paths;
            ts->paths_per_group.Record(group_paths);
            ShufflePacket<Key> p;
            p.key = entry.key;
            p.mapper_id = mapper_id;
            p.record_id = group.first_record;
            BinaryWriter w;
            w.WriteByte(kSegmentSymbolic);
            w.WriteVarUint(summaries.size());
            w.WriteBytes(body.buffer().data(), body.size());
            p.blob = w.TakeBuffer();
            out.push_back(std::move(p));
            continue;
          }
        } catch (const SympleError& e) {
          group.degraded = true;
          group.reason = final_emit ? ClassifyDegradeError(e)
                                    : DegradeReason::kMemoryBudget;
          group.message = e.what();
        }
      }
      // Degraded: marker now (final) or side map (flush — the marker must
      // wait so a later incarnation cannot shadow it).
      if (final_emit) {
        ShufflePacket<Key> p;
        p.key = entry.key;
        p.mapper_id = mapper_id;
        p.record_id = group.first_record;
        p.blob = MakeDeferredBlob(mapper_id, group.reason, group.message,
                                  group.first_record);
        out.push_back(std::move(p));
      } else {
        degraded.emplace(entry.key,
                         SideDegrade{group.reason, std::move(group.message),
                                     group.first_record});
      }
    }
    if (final_emit) {
      for (auto& [key, d] : degraded) {
        ShufflePacket<Key> p;
        p.key = key;
        p.mapper_id = mapper_id;
        p.record_id = d.start_record;
        p.blob = MakeDeferredBlob(mapper_id, d.reason, d.message, d.start_record);
        out.push_back(std::move(p));
      }
    }
    return out;
  };

  LineCursor cursor(segment);
  uint64_t rid = first_record;
  while (const auto line = cursor.Next()) {
    const uint64_t record_id = rid++;
    ++ts->records;
    auto rec = Query::Parse(*line);
    if (!rec.has_value()) {
      continue;
    }
    ++ts->parsed;
    if (!degraded.empty() && degraded.count(rec->first) > 0) {
      continue;  // already deferred to concrete replay; skip cheaply
    }
    auto [group_ptr, inserted] = groups.GetOrEmplace(rec->first, options);
    GroupAgg& group = *group_ptr;
    if (inserted) {
      group.first_record = record_id;
      if (budgets.force_degrade) {
        group.degraded = true;
        group.reason = DegradeReason::kForced;
        group.message = "degradation forced by configuration";
      }
    }
    if (group.degraded) {
      continue;  // the reducer will replay this segment from the raw input
    }
    try {
      group.agg.Feed(rec->second);
      if (budgets.max_paths_per_segment > 0 &&
          group.agg.total_paths() > budgets.max_paths_per_segment) {
        group.degraded = true;
        group.reason = DegradeReason::kPathBudget;
        group.message = "segment exceeded max_paths_per_segment = " +
                        std::to_string(budgets.max_paths_per_segment);
      }
    } catch (const SympleError& e) {
      // Path explosion, coefficient overflow, unsupported op: a declared
      // limitation of *this group's* UDA stream, not of the query. Degrade
      // the segment; the original message reaches the run report.
      group.degraded = true;
      group.reason = ClassifyDegradeError(e);
      group.message = e.what();
    }
    if (budgeted && ++since_check >= 64) {
      since_check = 0;
      if (budget->over() && groups.size() > 0) {
        std::vector<ShufflePacket<Key>> out = emit_groups(/*final_emit=*/false);
        ts->packets += out.size();
        // Clear before the sink charges the packets — the summaries moved
        // into the blobs, and double-charging at the watermark would spike
        // peak_tracked_bytes past the budget.
        groups.Clear();
        ts->bytes += sink(std::move(out));
      }
    }
  }
  std::vector<ShufflePacket<Key>> out = emit_groups(/*final_emit=*/true);
  // Probe/allocation counters accumulate across Clear(), so fold the table's
  // stats exactly once, after the last incarnation.
  ts->group_map += groups.stats();
  return out;
}

// Expands one raw input segment — or one record-aligned morsel of it, with
// `start_record` the chunk's first global record id — into per-key
// DeferredConcrete packets: one marker per distinct key, ordered at that
// key's first record. Used by the forked engines when a worker's frames fail
// validation (the pipe content is untrusted, so the whole pending segment
// degrades to concrete replay) and by the morsel scheduler when a SympleError
// escapes a SYMPLE map body (docs/scheduling.md).
template <typename Query>
std::vector<ShufflePacket<typename Query::Key>> DeferSegmentPackets(
    std::string_view segment, uint32_t segment_id, DegradeReason reason,
    std::string_view message, uint64_t start_record = 0) {
  using Key = typename Query::Key;
  FlatGroupMap<Key, uint64_t> first_record(
      ResolveGroupCapacityHint(0, segment.size() / 64));
  LineCursor cursor(segment);
  uint64_t rid = start_record;
  while (const auto line = cursor.Next()) {
    const uint64_t record_id = rid++;
    auto rec = Query::Parse(*line);
    if (rec.has_value()) {
      first_record.GetOrEmplace(rec->first, record_id);
    }
  }
  // First-seen order: the markers leave the degrade path in the same
  // deterministic order a healthy mapper would have emitted the packets.
  std::vector<ShufflePacket<Key>> out;
  out.reserve(first_record.size());
  for (const auto& entry : first_record) {
    ShufflePacket<Key> p;
    p.key = entry.key;
    p.mapper_id = segment_id;
    p.record_id = entry.value;
    // The blob's start_record mirrors the packet header's record id: the
    // reducer cross-checks them before trusting the marker's reason/message
    // (SympleReduceKey), and replay starts at the key's first record either
    // way.
    p.blob = MakeDeferredBlob(segment_id, reason, message, entry.value);
    out.push_back(std::move(p));
  }
  return out;
}

}  // namespace internal

}  // namespace symple

#endif  // SYMPLE_RUNTIME_MAP_PHASE_H_
