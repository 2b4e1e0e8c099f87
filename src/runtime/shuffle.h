// The mapper->reducer exchange: shuffle packets and their wire codec, the
// hash-partitioned ShuffleBuffer, and the SpillContext holding its on-disk
// sorted runs under a memory budget (docs/shuffle.md, docs/spill.md).
#ifndef SYMPLE_RUNTIME_SHUFFLE_H_
#define SYMPLE_RUNTIME_SHUFFLE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/memory_budget.h"
#include "core/degrade.h"
#include "core/flat_group_map.h"
#include "core/value_codec.h"
#include "runtime/spill.h"
#include "serialize/binary_io.h"

namespace symple {

namespace internal {

// One mapper-output record: everything a packet costs on the wire is inside
// `blob` (key, ids, payload), so shuffle accounting is exact.
template <typename Key>
struct ShufflePacket {
  Key key{};
  uint32_t mapper_id = 0;
  uint64_t record_id = 0;  // first record id covered by this packet
  std::vector<uint8_t> blob;

  // Ordering of Section 5.4: lexicographic by key, then mapper, then record.
  friend bool operator<(const ShufflePacket& a, const ShufflePacket& b) {
    if (a.key != b.key) {
      return a.key < b.key;
    }
    if (a.mapper_id != b.mapper_id) {
      return a.mapper_id < b.mapper_id;
    }
    return a.record_id < b.record_id;
  }
};

template <typename Key>
uint64_t PacketBytes(const ShufflePacket<Key>& p) {
  // Key + ids ship inside the packet header. This runs once per packet on the
  // map hot path, so the header is sized arithmetically (WireSizeOf is pure
  // arithmetic for every codec that declares WireSize) instead of through a
  // scratch BinaryWriter.
  return WireSizeOf(p.key) + VarUintSize(p.mapper_id) + VarUintSize(p.record_id) +
         VarUintSize(p.blob.size()) + p.blob.size();
}

// Conservative bound on a packet's non-key header (mapper, record id, blob
// length prefix, and the row-count varint a baseline blob leads with). Used
// by budgeted map tasks to pre-charge per-group flush overhead.
inline constexpr uint64_t kPacketHeaderOverhead = 12;

// Packet wire codec, shared by the forked-engine pipe protocol
// (process_engine.h) and the spill-file block bodies: packets serialized
// into either carrier are byte-identical.
template <typename Key>
void SerializePacketFrame(const ShufflePacket<Key>& p, BinaryWriter& w) {
  ValueCodec<Key>::Write(w, p.key);
  w.WriteVarUint(p.mapper_id);
  w.WriteVarUint(p.record_id);
  w.WriteVarUint(p.blob.size());
  w.WriteBytes(p.blob.data(), p.blob.size());
}

template <typename Key>
ShufflePacket<Key> DeserializePacketFrame(BinaryReader& r) {
  ShufflePacket<Key> p;
  p.key = ValueCodec<Key>::Read(r);
  p.mapper_id = r.ReadVarUint32();
  p.record_id = r.ReadVarUint();
  const uint64_t blob_size = r.ReadVarUint();
  if (blob_size > r.remaining()) {
    // A length claiming more than the framed payload holds is corrupt wire
    // data (SympleIoError taxonomy), never a silent truncation.
    throw SympleWireError("packet blob size exceeds frame (" +
                          std::to_string(blob_size) + " > " +
                          std::to_string(r.remaining()) + " bytes)");
  }
  p.blob.resize(blob_size);
  r.ReadBytes(p.blob.data(), p.blob.size());
  return p;
}

// --- hash-partitioned shuffle ---------------------------------------------------

// Stable partition routing: every packet of a key maps to the same partition,
// so a key's full (mapper, record)-ordered run lives in exactly one partition.
// HashGroupKey (core/flat_group_map.h) is the same splitmix64-finalized hash
// the group tables probe with, so the partitioner and the tables agree on key
// distribution.
template <typename Key>
size_t ShufflePartitionOf(const Key& key, size_t num_partitions) {
  return static_cast<size_t>(HashGroupKey(key) % num_partitions);
}

// --- spill-to-disk external aggregation (docs/spill.md) -------------------------

// Map tasks flushing a group table mid-segment hand their packets to this
// sink (the engine wires it to ShuffleBuffer::AddBatch); returns the batch's
// serialized bytes for task accounting.
template <typename Key>
using PacketSink = std::function<uint64_t(std::vector<ShufflePacket<Key>>&&)>;

// The on-disk half of the shuffle under a memory budget: per-partition
// collections of sorted packet runs. Producers are map tasks (through
// ShuffleBuffer::MaybeSpill, also when the forked parent drain adds a
// committed segment); the reduce stage
// streams each partition back through MergePartition. Thread-safe for
// concurrent SpillSortedRun calls; the temp directory is created lazily on
// the first spill and removed — with any files still inside — when the
// context is destroyed.
template <typename Key>
class SpillContext {
 public:
  using Packet = ShufflePacket<Key>;

  SpillContext(MemoryBudget* budget, size_t num_partitions,
               const std::string& dir_base)
      : budget_(budget),
        dir_base_(dir_base),
        faults_(SpillFaultFromEnv()),
        runs_(num_partitions == 0 ? 1 : num_partitions) {}

  // Spilling is worth attempting only when a budget can actually trip, and
  // stops after the disk has proven itself broken (two failed attempts).
  bool enabled() const {
    return budget_ != nullptr && budget_->limit_bytes() > 0 &&
           !broken_.load(std::memory_order_relaxed);
  }

  // Writes `packets` — already sorted by the Section 5.4 packet order — as
  // one run of partition `part`. Every run is verified by read-back while
  // the packets are still in memory; a failed or corrupt file is discarded
  // and the run retried once on a fresh file. Returns false when the retry
  // also failed: the caller keeps the packets in memory (over budget beats
  // wrong or lost results) and the context disables itself.
  bool SpillSortedRun(size_t part, const std::vector<Packet>& packets) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      try {
        if (TrySpill(part, packets)) {
          return true;
        }
      } catch (const SympleError&) {
        // enospc / short write: the attempt's TempFile was already unlinked
        // by its destructor; fall through to the fresh-file retry.
      }
    }
    broken_.store(true, std::memory_order_relaxed);
    return false;
  }

  bool has_runs(size_t part) const {
    std::lock_guard<std::mutex> lock(mu_);
    return !runs_[part].empty();
  }
  uint64_t total_runs() const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t n = 0;
    for (const auto& part : runs_) {
      n += part.size();
    }
    return n;
  }
  uint64_t total_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t n = 0;
    for (const auto& part : runs_) {
      for (const SpillRun& run : part) {
        n += run.bytes;
      }
    }
    return n;
  }

  // Streams partition `part` back in global (key, mapper, record) order: a
  // k-way merge of the partition's on-disk runs and `mem`, its sorted
  // in-memory remainder. Each key's packets are gathered into a scratch
  // vector and handed to `fn(key, first, last)` — the same per-key contract
  // the in-memory reduce uses, so downstream reduce code cannot tell a
  // spilled partition from a resident one. Call only after all producers
  // have quiesced.
  template <typename Fn>
  void MergePartition(size_t part, std::vector<Packet>&& mem, Fn&& fn) {
    std::vector<std::unique_ptr<RunCursor>> cursors;
    {
      std::lock_guard<std::mutex> lock(mu_);
      cursors.reserve(runs_[part].size());
      for (const SpillRun& run : runs_[part]) {
        cursors.push_back(std::make_unique<RunCursor>(run.file->path()));
      }
    }
    size_t mem_pos = 0;
    const auto pop_min = [&](Packet* out) {
      const Packet* best = mem_pos < mem.size() ? &mem[mem_pos] : nullptr;
      int best_cursor = -1;
      for (size_t c = 0; c < cursors.size(); ++c) {
        if (!cursors[c]->done() &&
            (best == nullptr || cursors[c]->head() < *best)) {
          best = &cursors[c]->head();
          best_cursor = static_cast<int>(c);
        }
      }
      if (best == nullptr) {
        return false;
      }
      if (best_cursor < 0) {
        *out = std::move(mem[mem_pos++]);
      } else {
        *out = std::move(cursors[best_cursor]->head());
        cursors[best_cursor]->Pop();
      }
      return true;
    };
    std::vector<Packet> scratch;
    Packet p;
    while (pop_min(&p)) {
      if (!scratch.empty() && !(scratch.front().key == p.key)) {
        fn(scratch.front().key, scratch.data(), scratch.data() + scratch.size());
        scratch.clear();
      }
      scratch.push_back(std::move(p));
    }
    if (!scratch.empty()) {
      fn(scratch.front().key, scratch.data(), scratch.data() + scratch.size());
    }
  }

 private:
  struct SpillRun {
    std::unique_ptr<TempFile> file;
    uint64_t packets = 0;
    uint64_t bytes = 0;  // on-disk bytes including block envelopes
  };

  // Buffered sequential reader over one run file: deserializes a block's
  // packets at a time, exposing the head packet for the merge's min-scan.
  class RunCursor {
   public:
    explicit RunCursor(const std::string& path) : reader_(path) { Refill(); }
    bool done() const { return done_; }
    Packet& head() { return buf_[pos_]; }
    void Pop() {
      if (++pos_ == buf_.size()) {
        Refill();
      }
    }

   private:
    void Refill() {
      buf_.clear();
      pos_ = 0;
      uint8_t type = 0;
      std::vector<uint8_t> body;
      while (buf_.empty()) {
        if (!reader_.NextBlock(&type, &body)) {
          done_ = true;
          return;
        }
        if (type != kSpillBlockPackets) {
          throw SympleWireError("unexpected spill block type in packet run");
        }
        BinaryReader r(body.data(), body.size());
        while (!r.AtEnd()) {
          buf_.push_back(DeserializePacketFrame<Key>(r));
        }
      }
    }

    SpillFileReader reader_;
    std::vector<Packet> buf_;
    size_t pos_ = 0;
    bool done_ = false;
  };

  // One attempt: serialize into ~kSpillBlockTargetBytes blocks, then verify
  // the whole file by read-back (the spill-corrupt detection point — the
  // packets are still in memory, so a corrupt file costs a retry, never
  // data). Returns false on verification failure; throws SympleIoError on a
  // write failure. Either way the attempt's file never enters runs_.
  bool TrySpill(size_t part, const std::vector<Packet>& packets) {
    std::unique_ptr<TempFile> file;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (dir_ == nullptr) {
        dir_ = std::make_unique<TempDir>(dir_base_);
      }
      file = std::make_unique<TempFile>(
          dir_->path(), "run-" + std::to_string(file_seq_++) + ".spill");
    }
    SpillFileWriter writer(file.get(), &faults_);
    BinaryWriter body;
    for (const Packet& p : packets) {
      SerializePacketFrame(p, body);
      if (body.size() >= kSpillBlockTargetBytes) {
        writer.WriteBlock(kSpillBlockPackets, body.buffer());
        body.Clear();
      }
    }
    if (body.size() > 0) {
      writer.WriteBlock(kSpillBlockPackets, body.buffer());
    }
    file->CloseFd();
    if (!VerifySpillFile(file->path(), writer.blocks_written())) {
      return false;
    }
    SpillRun run;
    run.packets = packets.size();
    run.bytes = writer.bytes_written();
    run.file = std::move(file);
    std::lock_guard<std::mutex> lock(mu_);
    runs_[part].push_back(std::move(run));
    return true;
  }

  MemoryBudget* budget_;
  std::string dir_base_;
  SpillFaultInjector faults_;
  mutable std::mutex mu_;
  std::unique_ptr<TempDir> dir_;  // lazy: no directory until the first spill
  uint64_t file_seq_ = 0;
  std::vector<std::vector<SpillRun>> runs_;
  std::atomic<bool> broken_{false};
};

// The mapper->reducer exchange: P lock-striped partitions that map tasks (or
// the forked-mode parent drain, one committed segment at a time) route packet
// batches into as they emit. Every partition is a sequence of sorted runs,
// merged independently and in parallel after the map barrier. Byte counts accumulate per partition so the
// run report can surface partition skew.
template <typename Key>
class ShuffleBuffer {
 public:
  using Packet = ShufflePacket<Key>;

  // `expected_packets`, when nonzero, pre-reserves every partition's packet
  // vector for its even share (plus slack for hash imbalance) so the build
  // side does not reallocate its way up from empty on large shuffles.
  explicit ShuffleBuffer(size_t num_partitions, uint64_t expected_packets = 0)
      : parts_(num_partitions == 0 ? 1 : num_partitions) {
    const size_t per_part =
        expected_packets > 0
            ? static_cast<size_t>(expected_packets / parts_.size() +
                                  expected_packets / (4 * parts_.size()) + 1)
            : 0;
    for (auto& p : parts_) {
      p = std::make_unique<Partition>();
      if (per_part > 0) {
        p->packets.reserve(per_part);
      }
    }
  }

  ~ShuffleBuffer() {
    if (budget_ != nullptr) {
      uint64_t held = 0;
      for (const auto& p : parts_) {
        held += p->mem_bytes;
      }
      budget_->Release(held);
    }
  }

  size_t partition_count() const { return parts_.size(); }

  // Attaches the run's memory tracker and disk spill target: AddBatch
  // charges buffered packet bytes against `budget`, and once it reports
  // over(), the heaviest partition's buffered packets are sorted and moved
  // out as an on-disk run (docs/spill.md). Call before any producer starts.
  void EnableSpill(MemoryBudget* budget, SpillContext<Key>* spill) {
    budget_ = budget;
    spill_ = spill;
  }

  // Routes one map task's packets: buckets locally first, then takes each
  // touched partition's stripe lock exactly once (per-mapper sub-buckets
  // merged at the stripe, not a global lock). Returns the batch's total
  // serialized bytes for the caller's task accounting.
  //
  // Under a budget the batch lands in bounded slices (limit/64 each) with a
  // charge + spill check between them: a mid-segment flush can hand over a
  // batch worth a sizable fraction of the whole budget, and charging it in
  // one step right at the watermark would spike the tracked peak past the
  // budget before any spiller could react.
  //
  // Pipelined map→shuffle handoff (docs/scheduling.md): each per-partition
  // sub-bucket is sorted *here*, on the producing map worker, before it is
  // appended under the stripe lock, and the [start, end) of the appended
  // range is recorded as a sorted run. The post-barrier SortPartition then
  // merges the recorded runs (pairwise inplace_merge cascade) instead of
  // sorting the whole partition from scratch — the O(n log n) comparison
  // work moves off the shuffle barrier and overlaps the map phase.
  uint64_t AddBatch(std::vector<Packet>&& batch) {
    const size_t num_parts = parts_.size();
    const uint64_t slice_limit =
        budget_ != nullptr && budget_->limit_bytes() > 0
            ? std::max<uint64_t>(budget_->limit_bytes() / 64, 4096)
            : UINT64_MAX;
    uint64_t batch_bytes = 0;
    size_t i = 0;
    while (i < batch.size()) {
      std::vector<std::vector<size_t>> local(num_parts);
      std::vector<uint64_t> local_bytes(num_parts, 0);
      uint64_t slice_bytes = 0;
      for (; i < batch.size() && slice_bytes < slice_limit; ++i) {
        const size_t part = ShufflePartitionOf(batch[i].key, num_parts);
        const uint64_t bytes = PacketBytes(batch[i]);
        local[part].push_back(i);
        local_bytes[part] += bytes;
        slice_bytes += bytes;
      }
      for (size_t part = 0; part < num_parts; ++part) {
        if (local[part].empty()) {
          continue;
        }
        // Sort this sub-bucket outside the stripe lock. Indexes, not
        // packets: the packets move exactly once, straight into the
        // partition vector, already in run order.
        std::sort(local[part].begin(), local[part].end(),
                  [&batch](size_t a, size_t b) { return batch[a] < batch[b]; });
        Partition& target = *parts_[part];
        std::lock_guard<std::mutex> lock(target.mu);
        target.bytes += local_bytes[part];
        target.mem_bytes += local_bytes[part];
        for (const size_t idx : local[part]) {
          target.packets.push_back(std::move(batch[idx]));
        }
        target.run_ends.push_back(target.packets.size());
      }
      batch_bytes += slice_bytes;
      if (budget_ != nullptr) {
        budget_->Charge(slice_bytes);
        MaybeSpill();
      }
    }
    return batch_bytes;
  }

  // Post-barrier: brings partition `i` into full (key, mapper, record)
  // order with a pairwise inplace_merge cascade over its recorded sorted
  // runs — O(n log k) merge work (k = runs) on already-sorted pieces.
  // Callers must have quiesced all producers.
  void SortPartition(size_t i) {
    Partition& part = *parts_[i];
    std::vector<Packet>& v = part.packets;
    std::vector<size_t> ends = std::move(part.run_ends);
    while (ends.size() > 1) {
      std::vector<size_t> merged;
      merged.reserve((ends.size() + 1) / 2);
      size_t begin = 0;
      for (size_t k = 0; k < ends.size(); k += 2) {
        if (k + 1 < ends.size()) {
          std::inplace_merge(v.begin() + static_cast<ptrdiff_t>(begin),
                             v.begin() + static_cast<ptrdiff_t>(ends[k]),
                             v.begin() + static_cast<ptrdiff_t>(ends[k + 1]));
          merged.push_back(ends[k + 1]);
          begin = ends[k + 1];
        } else {
          merged.push_back(ends[k]);
          begin = ends[k];
        }
      }
      ends = std::move(merged);
    }
    part.run_ends.clear();
  }

  // Post-barrier accessors; callers must have quiesced all producers.
  std::vector<Packet>& partition(size_t i) { return parts_[i]->packets; }
  uint64_t partition_bytes(size_t i) const { return parts_[i]->bytes; }
  uint64_t total_packets() const {
    uint64_t n = 0;
    for (const auto& p : parts_) {
      n += p->packets.size();
    }
    return n;
  }

 private:
  struct Partition {
    std::mutex mu;
    std::vector<Packet> packets;
    // Ends of the sorted runs `packets` is made of ([0, run_ends[0]) is run
    // 0, [run_ends[0], run_ends[1]) run 1, ...): every append is one run.
    std::vector<size_t> run_ends;
    uint64_t bytes = 0;      // cumulative serialized bytes routed here
    uint64_t mem_bytes = 0;  // bytes currently buffered (drops on spill)
  };

  // Budget reaction: while tracked usage is over the line, sort and spill
  // the partition holding the most buffered bytes. try_lock keeps exactly
  // one spiller active without ever blocking the other producers; partitions
  // under kMinSpillBytes are left alone (the pressure is elsewhere — e.g.
  // map-side tables — and a run that small isn't worth a file).
  static constexpr uint64_t kMinSpillBytes = 4096;
  void MaybeSpill() {
    if (spill_ == nullptr || !spill_->enabled() || !budget_->over()) {
      return;
    }
    // Soft pressure (past the 3/4 watermark): one spiller drains while the
    // other producers keep going. Hard pressure (within limit/8 of the
    // budget): the producers have collectively outrun that one spiller, so
    // they block on the spill lock instead — backpressure that bounds the
    // tracked peak under the configured budget no matter how lopsided the
    // producer/spiller speed ratio is. Callers hold no stripe lock here, so
    // blocking cannot deadlock with the spiller's per-partition swaps.
    std::unique_lock<std::mutex> spilling(spill_mu_, std::defer_lock);
    if (budget_->critical()) {
      spilling.lock();
    } else if (!spilling.try_lock()) {
      return;
    }
    while (budget_->over() && spill_->enabled()) {
      size_t victim = parts_.size();
      uint64_t victim_bytes = kMinSpillBytes;
      for (size_t i = 0; i < parts_.size(); ++i) {
        std::lock_guard<std::mutex> lock(parts_[i]->mu);
        if (parts_[i]->mem_bytes >= victim_bytes) {
          victim_bytes = parts_[i]->mem_bytes;
          victim = i;
        }
      }
      if (victim == parts_.size()) {
        return;
      }
      Partition& part = *parts_[victim];
      std::vector<Packet> local;
      {
        std::lock_guard<std::mutex> lock(part.mu);
        local.swap(part.packets);
        victim_bytes = part.mem_bytes;  // resample under the stripe lock
        part.mem_bytes = 0;
        // The swapped-out runs leave with the packets; whatever lands in the
        // emptied partition afterwards starts a fresh run sequence.
        part.run_ends.clear();
      }
      std::sort(local.begin(), local.end());
      if (spill_->SpillSortedRun(victim, local)) {
        budget_->Release(victim_bytes);
      } else {
        // The disk failed twice: put the packets back and run over budget —
        // the fault-injection contract is a successful (if unbounded) run.
        std::lock_guard<std::mutex> lock(part.mu);
        part.mem_bytes += victim_bytes;
        // The returned packets are one more sorted run after whatever
        // arrived meanwhile.
        part.packets.insert(part.packets.end(), std::make_move_iterator(local.begin()),
                            std::make_move_iterator(local.end()));
        part.run_ends.push_back(part.packets.size());
        return;
      }
    }
  }

  std::vector<std::unique_ptr<Partition>> parts_;
  MemoryBudget* budget_ = nullptr;
  SpillContext<Key>* spill_ = nullptr;
  std::mutex spill_mu_;
};

// SYMPLE packet blobs lead with a kind byte (SegmentResult tag): a segment's
// packet either carries its ordered symbolic summaries or a DeferredConcrete
// marker telling the reducer to replay the segment from the raw input.
// Baseline packets are untagged (they are already concrete rows).
inline constexpr uint8_t kSegmentSymbolic = 0;
inline constexpr uint8_t kSegmentDeferred = 1;

// DeferredConcrete marker: [kSegmentDeferred][varint segment_id][u8 reason]
// [string message][varint start_record]. segment_id duplicates the packet's
// mapper_id as a cross-check; the message preserves the original error for
// the run report. start_record is the first record of the group's current
// table incarnation: records before it already crossed the shuffle as
// summaries when a memory budget flushed the table mid-segment
// (docs/spill.md), so the reducer's concrete replay must start there. The
// default 0 — replay the whole segment — is the pre-spill semantics every
// other degrade path keeps.
inline std::vector<uint8_t> MakeDeferredBlob(uint32_t segment_id,
                                             DegradeReason reason,
                                             std::string_view message,
                                             uint64_t start_record = 0) {
  BinaryWriter w;
  w.WriteByte(kSegmentDeferred);
  w.WriteVarUint(segment_id);
  w.WriteByte(static_cast<uint8_t>(reason));
  w.WriteString(message);
  w.WriteVarUint(start_record);
  return w.TakeBuffer();
}

}  // namespace internal

}  // namespace symple

#endif  // SYMPLE_RUNTIME_SHUFFLE_H_
