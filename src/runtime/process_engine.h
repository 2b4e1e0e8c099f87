// Forked-process execution mode — the paper's actual local MapReduce setup
// (Section 6.2: "simulates a single-machine MapReduce with multiple processes
// and pipes").
//
// The forked workers are the second map executor of the shared pipeline
// (runtime/pipeline.h). Each worker process owns a subset of the segments,
// runs the strategy's map over them (symbolic for SYMPLE, row-batching for
// the baseline), and streams its serialized shuffle packets to the parent
// over a pipe. The parent routes committed packets into the pipeline's
// hash-partitioned shuffle, which sorts and reduces them (docs/shuffle.md) —
// so the symbolic summaries genuinely cross a process boundary in their wire
// form, exactly as they cross machines in the distributed setting.
//
// The parent's drain is a poll()-multiplexed loop over all worker pipes (no
// head-of-line blocking when one worker fills its pipe buffer), and the
// runtime is fault tolerant at segment granularity: a crashed, hung
// (EngineOptions::worker_timeout_ms), or protocol-violating worker is killed,
// reaped, and its not-yet-committed segments are re-executed in a respawned
// worker (bounded retries with backoff), falling back to in-process execution
// once the retry budget is spent. Re-execution is sound because map tasks are
// deterministic and start from unknown symbolic state (Section 2.3) — the
// classic MapReduce re-execution model. Fd and child ownership is RAII
// (runtime/ipc.h): no error path leaks descriptors or zombie children.
//
// Wire protocol: a stream of [u32 LE size][payload] frames. Every payload is
// a checksummed, versioned envelope
//
//   [u32 LE crc][u8 type][u8 version][body]
//
// where the CRC-32 covers everything after the crc field (type, version and
// body), so a single flipped bit anywhere in the payload fails validation.
// The frame types and their bodies:
//
//   kFramePacket      body = [varint segment_id][serialized ShufflePacket]
//   kFrameSegmentDone body = [varint segment_id][varint parsed]
//                            [varint summaries][varint summary_paths]
//   kFrameStreamEnd   body = (empty)
//
// The segment-done counters are the child's map-task stats for the segment;
// the parent folds them into EngineStats when it commits the segment. A frame
// that fails envelope validation (short, bad checksum, wrong version) is a
// "corrupt" worker failure (RunForkedMapPhase, docs/degradation.md).
//
// See docs/process_engine.md for the full failure-semantics contract and the
// SYMPLE_FAULT_SPEC fault-injection hook.
#ifndef SYMPLE_RUNTIME_PROCESS_ENGINE_H_
#define SYMPLE_RUNTIME_PROCESS_ENGINE_H_

#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.h"
#include "runtime/engine.h"
#include "runtime/ipc.h"
#include "serialize/checksum.h"

namespace symple {
namespace internal {

enum ForkedFrameType : uint8_t {
  kFramePacket = 1,
  kFrameSegmentDone = 2,
  kFrameStreamEnd = 3,
};

// Bumped whenever the frame envelope or any body layout changes; a version
// mismatch is indistinguishable from corruption to the parent and handled
// the same way (kill + degrade/retry), never by guessing the old layout.
inline constexpr uint8_t kForkedWireVersion = 3;

// Frame payloads shorter than the envelope cannot carry a checksum.
inline constexpr size_t kFrameEnvelopeBytes = 6;  // crc(4) + type + version

// Assembles [u32 LE crc][type][version][body] into `payload` (cleared first).
inline void BuildWorkerFrame(uint8_t type, const BinaryWriter& body,
                             BinaryWriter* payload) {
  const uint8_t head[2] = {type, kForkedWireVersion};
  uint32_t crc = Crc32(head, sizeof(head));
  crc = Crc32Extend(crc, body.buffer().data(), body.size());
  payload->Clear();
  for (int shift = 0; shift < 32; shift += 8) {
    payload->WriteByte(static_cast<uint8_t>(crc >> shift));
  }
  payload->WriteByte(type);
  payload->WriteByte(kForkedWireVersion);
  payload->WriteBytes(body.buffer().data(), body.size());
}

// Validates one decoded frame's envelope and returns a reader positioned at
// the body, storing the frame type in *type_out. Throws SympleWireError on a
// short frame, checksum mismatch, or version mismatch — the caller treats
// any of these as a corrupt worker stream.
inline BinaryReader ValidateWorkerFrame(const std::vector<uint8_t>& frame,
                                        uint8_t* type_out) {
  if (frame.size() < kFrameEnvelopeBytes) {
    throw SympleWireError("worker frame shorter than its envelope (" +
                          std::to_string(frame.size()) + " bytes)");
  }
  uint32_t stored = 0;
  for (int i = 3; i >= 0; --i) {
    stored = (stored << 8) | frame[static_cast<size_t>(i)];
  }
  const uint32_t actual = Crc32(frame.data() + 4, frame.size() - 4);
  if (stored != actual) {
    throw SympleWireError("worker frame checksum mismatch");
  }
  if (frame[5] != kForkedWireVersion) {
    throw SympleWireError("worker frame version " + std::to_string(frame[5]) +
                          " (expected " + std::to_string(kForkedWireVersion) + ")");
  }
  *type_out = frame[4];
  return BinaryReader(frame.data() + kFrameEnvelopeBytes,
                      frame.size() - kFrameEnvelopeBytes);
}

// SerializePacketFrame / DeserializePacketFrame live in runtime/shuffle.h:
// the same packet layout rides both the forked pipe and spill-file blocks.

// Forks workers over the dataset's segments (worker w initially owns
// s ≡ w (mod num_processes)), drains all pipes concurrently, and recovers
// from worker failures by re-executing incomplete segments. Committed packets
// are routed into `shuffle`'s hash partitions as their segments complete;
// fills shuffle_bytes, parsed_records, summaries, summary_paths, map_cpu_ms
// (the reaped workers' rusage) plus the worker_retries / worker_timeouts /
// worker_crashes / fallback_segments counters. With an observer attached,
// the parent reports one observation per worker drain and one
// OnWorkerFailure event per kill.
//
// Corrupt worker streams (frames failing checksum/version validation) are
// not retried when the plan has a degrade path — re-running a
// deterministically corrupting worker cannot help — and each uncommitted
// segment is replaced by its degrade packets (deferred-replay markers in the
// SYMPLE engine). Without one, corruption falls back to the crash/retry path.
//
// The children run plan.worker_map_chunk over whole segments (chunk = the
// full segment, first_record = 0): a child is already one core, so
// intra-child morsels buy nothing, and commit/retry bookkeeping stays per
// segment. The parent's in-process fallback is the threaded executor's
// morsel phase over the pending segments (docs/scheduling.md): it owns all
// the surviving cores, and the segments that land there are by definition
// the ones that already stalled a worker lineage.
template <typename Key>
void RunForkedMapPhase(const Dataset& data, const EngineOptions& options,
                       const MapPlan<Key>& plan, ShuffleBuffer<Key>* shuffle,
                       EngineStats* stats) {
  using Packet = ShufflePacket<Key>;
  using Clock = std::chrono::steady_clock;
  obs::RunObserver* observer = options.observer;
  const size_t num_processes = options.map_slots == 0 ? 1 : options.map_slots;
  const std::optional<FaultSpec> fault = FaultSpecFromEnv();

  struct WorkerState {
    ChildProcess child;
    UniqueFd read_fd;
    uint32_t spawn_seq = 0;
    int attempt = 0;                  // respawns consumed for this lineage
    std::vector<uint32_t> pending;    // segments not yet committed
    std::map<uint32_t, std::vector<Packet>> partial;  // uncommitted packets
    FrameDecoder decoder;
    Clock::time_point last_progress;
    bool stream_end = false;
    uint64_t packets = 0;
    uint64_t bytes = 0;
    double drain_start_us = 0;
  };

  std::vector<std::unique_ptr<WorkerState>> workers;
  uint32_t next_spawn_seq = 0;

  auto spawn = [&](std::vector<uint32_t> segments,
                   int attempt) -> std::unique_ptr<WorkerState> {
    auto w = std::make_unique<WorkerState>();
    w->spawn_seq = next_spawn_seq++;
    w->attempt = attempt;
    w->pending = std::move(segments);
    UniqueFd write_end;
    MakePipe(&w->read_fd, &write_end);
    // Read ends the child must close: every live sibling's plus its own —
    // a child holding a sibling's read end would break that pipe's EOF.
    std::vector<int> parent_read_fds;
    for (const auto& other : workers) {
      if (other != nullptr && other->read_fd.valid()) {
        parent_read_fds.push_back(other->read_fd.get());
      }
    }
    parent_read_fds.push_back(w->read_fd.get());
    const pid_t pid = ::fork();
    if (pid < 0) {
      throw SympleIoError("fork() failed");
    }
    if (pid == 0) {
      // Worker process. Never returns; never runs parent-side destructors.
      for (const int fd : parent_read_fds) {
        ::close(fd);
      }
      ::signal(SIGPIPE, SIG_IGN);  // broken pipe surfaces as EPIPE, not death
      int exit_code = 0;
      try {
        FrameWriter writer(write_end.get(), fault, w->spawn_seq);
        BinaryWriter body;
        BinaryWriter payload;
        for (const uint32_t s : w->pending) {
          TaskStats ts;
          std::vector<Packet> packets =
              plan.worker_map_chunk(s, data.segments[s], /*first_record=*/0, &ts);
          for (const Packet& p : packets) {
            body.Clear();
            body.WriteVarUint(s);
            SerializePacketFrame(p, body);
            BuildWorkerFrame(kFramePacket, body, &payload);
            writer.WriteFrame(payload.buffer());
          }
          body.Clear();
          body.WriteVarUint(s);
          body.WriteVarUint(ts.parsed);
          body.WriteVarUint(ts.summaries);
          body.WriteVarUint(ts.summary_paths);
          BuildWorkerFrame(kFrameSegmentDone, body, &payload);
          writer.WriteFrame(payload.buffer());
        }
        body.Clear();
        BuildWorkerFrame(kFrameStreamEnd, body, &payload);
        writer.WriteFrame(payload.buffer());
      } catch (...) {
        exit_code = 1;  // parent recovers via the missing stream-end marker
      }
      ::_exit(exit_code);
    }
    w->child = ChildProcess(pid);
    w->last_progress = Clock::now();
    w->drain_start_us = observer != nullptr ? observer->NowUs() : 0;
    return w;
  };

  // Commits one completed segment: its buffered packets become visible in the
  // output and its counters in the stats. Until this point the segment leaves
  // no trace, so discarding a failed worker's partial state and re-running
  // its pending segments can never duplicate or drop packets or counts.
  auto commit_segment = [&](WorkerState& w, BinaryReader& done) {
    const uint32_t seg = done.ReadVarUint32();
    const auto pending_it = std::find(w.pending.begin(), w.pending.end(), seg);
    if (pending_it == w.pending.end()) {
      throw SympleIoError("segment-done for a segment this worker does not own");
    }
    const uint64_t parsed = done.ReadVarUint();
    const uint64_t summaries = done.ReadVarUint();
    const uint64_t summary_paths = done.ReadVarUint();
    w.pending.erase(pending_it);
    stats->parsed_records += parsed;
    stats->summaries += summaries;
    stats->summary_paths += summary_paths;
    auto it = w.partial.find(seg);
    if (it == w.partial.end()) {
      return;  // segment produced no packets (e.g. nothing parsed)
    }
    w.packets += it->second.size();
    const uint64_t bytes = shuffle->AddBatch(std::move(it->second));
    stats->shuffle_bytes += bytes;
    w.bytes += bytes;
    w.partial.erase(it);
  };

  auto process_frames = [&](WorkerState& w) {
    std::vector<uint8_t> frame;
    while (w.decoder.Next(&frame)) {
      uint8_t type = 0;
      BinaryReader r = ValidateWorkerFrame(frame, &type);
      if (type == kFramePacket) {
        const uint32_t seg = r.ReadVarUint32();
        if (std::find(w.pending.begin(), w.pending.end(), seg) == w.pending.end()) {
          throw SympleIoError("packet for a segment this worker does not own");
        }
        w.partial[seg].push_back(DeserializePacketFrame<Key>(r));
      } else if (type == kFrameSegmentDone) {
        commit_segment(w, r);
      } else if (type == kFrameStreamEnd) {
        if (!w.pending.empty()) {
          throw SympleIoError("stream end with incomplete segments");
        }
        w.stream_end = true;
        return;
      } else {
        throw SympleIoError("unknown frame type from worker");
      }
    }
  };

  auto finalize_success = [&](WorkerState& w) {
    w.read_fd.Reset();
    obs::ResourceUsage usage;
    if (w.child.valid()) {
      // All segments committed; exit status is moot. wait4 hands back the
      // worker's own rusage — its map CPU and resource profile.
      struct rusage worker_ru {};
      w.child.Reap(&worker_ru);
      usage = obs::FromRusage(worker_ru);
      stats->map_cpu_ms += usage.cpu_ms();
    }
    if (observer != nullptr) {
      obs::MapTaskObs t;
      t.mapper_id = w.spawn_seq;
      t.start_us = w.drain_start_us;
      t.end_us = observer->NowUs();
      t.packets = w.packets;
      t.bytes = w.bytes;
      t.cpu_ms = usage.cpu_ms();
      t.maxrss_kb = usage.maxrss_kb;
      observer->OnMapTask(t);
    }
  };

  // Kills and reaps a failed worker, then recovers its pending segments:
  // corrupt streams degrade to the plan's replacement packets (when a
  // degrade path exists), everything else respawns a replacement worker or —
  // once the retry budget is spent — executes in-process. Committed segments
  // are never re-run.
  auto handle_failure = [&](std::unique_ptr<WorkerState>& slot, const char* kind) {
    WorkerState& w = *slot;
    const bool degrading =
        std::strcmp(kind, "corrupt") == 0 && plan.degrade_chunk != nullptr;
    if (std::strcmp(kind, "timeout") == 0) {
      ++stats->worker_timeouts;
    } else if (!degrading) {
      ++stats->worker_crashes;
    }
    w.child.KillAndReap();
    w.read_fd.Reset();
    if (observer != nullptr) {
      observer->OnWorkerFailure(w.spawn_seq, kind);
    }
    std::vector<uint32_t> pending = std::move(w.pending);
    const int attempt = w.attempt;
    if (pending.empty()) {
      // Nothing left to recover (e.g. the stream died after the last
      // segment-done but before stream-end); the worker's output is complete.
      slot.reset();
      return;
    }
    if (degrading) {
      // Nothing read from this pipe can be trusted and re-running a
      // deterministically corrupting worker cannot help, so don't retry:
      // every uncommitted segment is replaced by the plan's degrade packets
      // (deferred-replay markers), which the reducer resolves concretely.
      for (const uint32_t s : pending) {
        stats->shuffle_bytes += shuffle->AddBatch(plan.degrade_chunk(
            s, data.segments[s], /*first_record=*/0, DegradeReason::kWireCorrupt,
            "corrupt summary frame from worker"));
      }
      slot.reset();
      return;
    }
    if (attempt < options.worker_retry_limit) {
      ++stats->worker_retries;
      const int shift = attempt < 10 ? attempt : 10;
      SleepMs(static_cast<long>(options.worker_retry_backoff_ms) << shift);
      slot = spawn(std::move(pending), attempt + 1);
      return;
    }
    // Final fallback: in-process execution, which cannot crash-loop — the
    // threaded executor's morsel phase over the pending segments.
    stats->fallback_segments += pending.size();
    slot.reset();
    RunMapPhase<Key>(data.segments, pending, options.map_slots, plan.morsel_records,
                     plan.map_chunk, plan.degrade_chunk, shuffle, stats, observer);
  };

  for (size_t wi = 0; wi < num_processes; ++wi) {
    std::vector<uint32_t> segments;
    for (size_t s = wi; s < data.segments.size(); s += num_processes) {
      segments.push_back(static_cast<uint32_t>(s));
    }
    workers.push_back(spawn(std::move(segments), 0));
  }

  const auto timeout =
      std::chrono::milliseconds(options.worker_timeout_ms > 0 ? options.worker_timeout_ms : 0);
  std::vector<uint8_t> read_buf(64 * 1024);
  std::vector<struct pollfd> pfds;
  for (;;) {
    workers.erase(std::remove(workers.begin(), workers.end(), nullptr),
                  workers.end());
    if (workers.empty()) {
      break;
    }
    pfds.clear();
    for (const auto& w : workers) {
      pfds.push_back({w->read_fd.get(), POLLIN, 0});
    }
    std::optional<Clock::time_point> deadline;
    if (options.worker_timeout_ms > 0) {
      // The earliest per-worker watchdog deadline, as an absolute time point:
      // PollWithDeadline (runtime/ipc.h) recomputes the remaining wait from
      // it after every EINTR, so signal storms cannot drift the watchdog —
      // a restarted relative timeout would push the deadline back on every
      // interruption and a hung worker might never be declared hung.
      auto min_deadline = Clock::time_point::max();
      for (const auto& w : workers) {
        min_deadline = std::min(min_deadline, w->last_progress + timeout);
      }
      deadline = min_deadline;
    }
    PollWithDeadline(pfds.data(), pfds.size(), deadline);
    const auto now = Clock::now();
    for (size_t i = 0; i < workers.size(); ++i) {
      std::unique_ptr<WorkerState>& slot = workers[i];
      WorkerState& w = *slot;
      const char* failure = nullptr;
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        size_t n = 0;
        const IoStatus s = ReadSome(w.read_fd.get(), read_buf.data(),
                                    read_buf.size(), &n);
        if (s == IoStatus::kOk) {
          w.last_progress = now;
          try {
            w.decoder.Feed(read_buf.data(), n);
            process_frames(w);
          } catch (const SympleWireError&) {
            // Envelope validation failed (checksum/version/short frame): the
            // stream carried bytes the worker never meant to send.
            ++stats->wire_corrupt_frames;
            failure = "corrupt";
          } catch (const SympleError&) {
            // Malformed wire data from this worker — its fault domain only.
            failure = "protocol";
          }
          if (failure == nullptr && w.stream_end) {
            finalize_success(w);
            slot.reset();
            continue;
          }
        } else {
          // EOF before the stream-end marker (crash/truncation) or read error.
          failure = "crash";
        }
      }
      if (failure == nullptr && options.worker_timeout_ms > 0 &&
          now - w.last_progress >= timeout) {
        failure = "timeout";
      }
      if (failure != nullptr) {
        handle_failure(slot, failure);
      }
    }
  }
}

// Executor: forked map workers over pipes, the paper's Section 6.2 setup.
struct ForkedWorkers {
  template <typename Key>
  void operator()(const Dataset& data, const EngineOptions& options,
                  const MapPlan<Key>& plan, ShuffleBuffer<Key>* shuffle,
                  EngineStats* stats) const {
    RunForkedMapPhase<Key>(data, options, plan, shuffle, stats);
  }
};

}  // namespace internal

// SYMPLE with forked map workers: symbolic summaries cross a real process
// boundary in wire form before the parent-side shuffle and reduce.
template <typename Query>
RunResult<Query> RunSympleForked(const Dataset& data, const EngineOptions& options = {}) {
  return internal::RunPipeline<Query>(data, options,
                                      internal::Symple<Query>{data, options},
                                      internal::ForkedWorkers{});
}

// Baseline with forked map workers (grouped textual rows over the pipes).
template <typename Query>
RunResult<Query> RunBaselineForked(const Dataset& data,
                                   const EngineOptions& options = {}) {
  return internal::RunPipeline<Query>(data, options, internal::Baseline<Query>{},
                                      internal::ForkedWorkers{});
}

}  // namespace symple

#endif  // SYMPLE_RUNTIME_PROCESS_ENGINE_H_
