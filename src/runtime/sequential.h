// The single-threaded concrete engine ("Sequential", Section 6.2), with
// hybrid-hash external aggregation under a memory budget (docs/spill.md).
//
// Part of runtime/engine.h, which declares EngineOptions and includes this
// header back; pulling the umbrella in first keeps either include order valid.
#include "runtime/engine.h"

#ifndef SYMPLE_RUNTIME_SEQUENTIAL_H_
#define SYMPLE_RUNTIME_SEQUENTIAL_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/memory_budget.h"
#include "core/flat_group_map.h"
#include "core/value_codec.h"
#include "runtime/dataset.h"
#include "runtime/spill.h"
#include "serialize/binary_io.h"

namespace symple {

// --- Sequential baseline ------------------------------------------------------

template <typename Query>
RunResult<Query> RunSequential(const Dataset& data, const EngineOptions& options = {}) {
  using Key = typename Query::Key;
  using State = typename Query::State;
  using Event = typename Query::Event;

  obs::RunObserver* observer = options.observer;
  const double obs_start = observer != nullptr ? observer->NowUs() : 0;
  const internal::ResourceScope resources;
  const auto t0 = std::chrono::steady_clock::now();
  RunResult<Query> result;
  result.stats.input_bytes = data.TotalBytes();

  // One global flat group table; the record-count hint for auto-sizing is the
  // byte volume over a conservative record width (counting records up front
  // would double-scan the input). The budget (docs/spill.md) tracks the
  // table's arena + index bytes; with no limit configured it is track-only,
  // never trips, and the run is one in-memory pass.
  MemoryBudget budget(options.memory_budget_bytes);
  FlatGroupMap<Key, State> states(internal::ClampHintToBudget(
      internal::ResolveGroupCapacityHint(options.group_capacity_hint,
                                         data.TotalBytes() / 64),
      budget, sizeof(typename FlatGroupMap<Key, State>::Node) + 8));
  states.SetMemoryBudget(&budget);

  // Hybrid-hash external aggregation (docs/spill.md). When the budget
  // trips, the groups already in the table are frozen in place — they
  // keep aggregating — while records for unseen keys divert, in row form,
  // to one of kSeqPartitions spill files; each file then becomes a pass
  // of its own against an empty table. A diverted key is by construction
  // never in the table, so passes retire disjoint key sets, every pass
  // retires at least one group (termination), and each group still sees
  // its records in input order — the merged output is byte-identical to
  // the in-memory run. Partition routing shifts 3 fresh hash bits per
  // recursion depth so a partition's keys re-split instead of re-colliding.
  constexpr size_t kSeqPartitions = 8;
  constexpr int kMaxDepth = 20;  // 3 bits per level in a 64-bit hash
  internal::SpillFaultInjector faults(internal::SpillFaultFromEnv());
  std::unique_ptr<internal::TempDir> spill_dir;
  uint64_t file_seq = 0;
  // One diverted partition: filled during a pass, then queued as a pass of
  // its own at the next recursion depth.
  struct RowPart {
    std::unique_ptr<internal::RowSpillFile> file;
    // Rows the disk refused after the in-place retry: processed as part
    // of this partition's pass straight from memory, so a half-spilled
    // key's rows never split across passes.
    std::vector<uint8_t> overflow;
    int depth = 0;
  };
  std::vector<RowPart> work;
  std::vector<RowPart> divert;
  bool disk_broken = false;  // spill dir/file creation failed; stay in memory
  bool frozen = false;
  int depth = 0;
  uint64_t since_check = 0;
  BinaryWriter row;

  // The cold halves of process_row live in their own lambdas so the
  // per-record path stays small enough to inline into the scan loop.
  const auto divert_row = [&](const Key& key, const Event& ev) {
    if (State* s = states.Find(key)) {
      Query::Update(*s, ev);
      return;
    }
    const size_t part = static_cast<size_t>(
        (HashGroupKey(key) >> (3 * depth)) & (kSeqPartitions - 1));
    row.Clear();
    ValueCodec<Key>::Write(row, key);
    Query::SerializeEvent(ev, row);
    divert[part].file->AppendRow(row.buffer().data(), row.size(),
                                 &divert[part].overflow);
  };
  const auto maybe_freeze = [&] {
    if (!budget.over() || disk_broken || depth >= kMaxDepth) {
      return;
    }
    try {
      if (spill_dir == nullptr) {
        spill_dir = std::make_unique<internal::TempDir>(options.spill_dir);
      }
      std::vector<RowPart> parts(kSeqPartitions);
      for (auto& p : parts) {
        p.file = std::make_unique<internal::RowSpillFile>(
            spill_dir->path(), "rows-" + std::to_string(file_seq++) + ".spill",
            &faults);
      }
      divert = std::move(parts);
      frozen = true;
    } catch (const SympleError&) {
      // No spill location at all: finish in memory, over budget — the
      // fault-injection contract is a successful run, not a bounded one.
      disk_broken = true;
      divert.clear();
    }
  };
  const auto process_row = [&](const Key& key, const Event& ev) {
    if (frozen) {
      divert_row(key, ev);
      return;
    }
    Query::Update(*states.GetOrEmplace(key).first, ev);
    if (++since_check >= 64) {
      since_check = 0;
      maybe_freeze();
    }
  };
  const auto finish_pass = [&] {
    for (auto& part : divert) {
      part.file->Finish(&part.overflow);
      if (part.file->has_blocks() || !part.overflow.empty()) {
        part.file->CloseFd();
        if (part.file->has_blocks()) {
          result.stats.spill_runs += 1;
          result.stats.spill_bytes += part.file->bytes_written();
        }
        part.depth = depth + 1;
        work.push_back(std::move(part));
      }
    }
    divert.clear();
    frozen = false;
    since_check = 0;
    for (const auto& entry : states) {
      result.outputs.emplace(entry.key, Query::Result(entry.value, entry.key));
    }
    result.stats.groups += states.size();
  };

  // Pass 0: the raw dataset.
  for (const std::string& segment : data.segments) {
    LineCursor cursor(segment);
    while (const auto line = cursor.Next()) {
      ++result.stats.input_records;
      auto rec = Query::Parse(*line);
      if (!rec.has_value()) {
        continue;
      }
      ++result.stats.parsed_records;
      process_row(rec->first, rec->second);
    }
  }
  finish_pass();

  // Recursive passes over diverted rows (depth-first; order is irrelevant
  // because pass key sets are disjoint and outputs are keyed). Rows were
  // appended in input order — disk blocks first, then any overflow — so
  // replaying file-then-overflow preserves each group's update order.
  // Record counters are NOT bumped here: these rows were counted in pass 0.
  const auto replay_rows = [&](BinaryReader& r) {
    while (!r.AtEnd()) {
      const Key key = ValueCodec<Key>::Read(r);
      const Event ev = Query::DeserializeEvent(r);
      process_row(key, ev);
    }
  };
  while (!work.empty()) {
    RowPart item = std::move(work.back());
    work.pop_back();
    depth = item.depth;
    // Cleared here, not when a pass retires, so a run that never spills
    // reports its one table's arena (docs/group_map.md).
    states.Clear();
    if (item.file->has_blocks()) {
      internal::SpillFileReader reader(item.file->path());
      uint8_t type = 0;
      std::vector<uint8_t> body;
      while (reader.NextBlock(&type, &body)) {
        if (type != internal::kSpillBlockRows) {
          throw SympleWireError("unexpected spill block type in row file");
        }
        BinaryReader r(body.data(), body.size());
        replay_rows(r);
      }
    }
    BinaryReader r(item.overflow.data(), item.overflow.size());
    replay_rows(r);
    finish_pass();
    // item.file's TempFile unlinks here, as soon as the pass retires.
  }
  result.stats.peak_tracked_bytes = budget.peak_bytes();
  result.stats.group_map += states.stats();
  result.stats.total_wall_ms = internal::MsSince(t0);
  result.stats.map_wall_ms = result.stats.total_wall_ms;
  result.stats.map_cpu_ms = result.stats.total_wall_ms;
  resources.Fold(&result.stats);
  if (observer != nullptr) {
    // The whole scan is one logical map task (mapper 0, no shuffle/reduce).
    obs::MapTaskObs t;
    t.mapper_id = 0;
    t.start_us = obs_start;
    t.end_us = observer->NowUs();
    t.cpu_ms = result.stats.map_cpu_ms;
    t.records = result.stats.input_records;
    t.parsed = result.stats.parsed_records;
    observer->OnMapTask(t);
  }
  return result;
}

}  // namespace symple

#endif  // SYMPLE_RUNTIME_SEQUENTIAL_H_
