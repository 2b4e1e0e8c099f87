// Disk primitives for memory-budgeted execution (docs/spill.md).
//
// When a run crosses EngineOptions::memory_budget_bytes, the engines move
// sorted runs of shuffle packets (and, in the sequential engine, raw grouped
// rows) out to disk and merge them back at reduce time. This header owns the
// *untemplated* half of that machinery:
//
//   TempDir / TempFile   RAII-managed spill locations. A TempFile unlinks its
//                        path on destruction — including when an exception
//                        unwinds through a half-written spill — and a TempDir
//                        sweeps and removes its directory, so no code path
//                        (enospc, short write, corruption, a crashed forked
//                        child mid-spill) leaks files.
//   SpillFileWriter      Append-only block writer. Each block is framed as
//                        [u32 LE size][u32 LE crc32][u8 type][u8 version]
//                        [body] — the same checksummed-envelope shape as the
//                        forked wire protocol (serialize/checksum.h), so a
//                        single flipped bit anywhere in a block fails
//                        validation on read-back.
//   SpillFileReader      Streams blocks back, validating size, checksum and
//                        version; throws SympleWireError on any mismatch.
//   SpillFaultInjector   Deterministic disk faults from SYMPLE_FAULT_SPEC
//                        (spill-enospc | spill-short-write | spill-corrupt),
//                        keyed by the 0-based spill-block write index.
//
// The templated half — serializing ShufflePackets into block bodies, sorted-
// run bookkeeping, and the streaming k-way merge — lives with the shuffle in
// runtime/shuffle.h (SpillContext), which depends on this header and not vice
// versa.
#ifndef SYMPLE_RUNTIME_SPILL_H_
#define SYMPLE_RUNTIME_SPILL_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "runtime/ipc.h"

namespace symple {
namespace internal {

// Spill block framing. Version is bumped whenever the envelope or a body
// layout changes; a mismatch is treated as corruption (the file is from this
// process's run, so a version skew can only mean scrambled bytes).
inline constexpr uint8_t kSpillBlockPackets = 1;  // body: shuffle packets
inline constexpr uint8_t kSpillBlockRows = 2;     // body: sequential rows
inline constexpr uint8_t kSpillWireVersion = 1;
inline constexpr size_t kSpillEnvelopeBytes = 10;  // size(4)+crc(4)+type+ver
inline constexpr uint32_t kMaxSpillBlockBytes = 1u << 30;
// Bodies are buffered to roughly this size before a block is cut: large
// enough that envelope + syscall cost amortizes, small enough that the
// buffering itself stays a rounding error against any plausible budget.
inline constexpr size_t kSpillBlockTargetBytes = 256 * 1024;

// First spill-mode spec in SYMPLE_FAULT_SPEC (';'-joined list), if any.
std::optional<FaultSpec> SpillFaultFromEnv();

// Deterministic disk-fault hook shared by every spill writer of one engine
// run. `frame` in the spec indexes spill-block writes through this injector
// in write order, so tests can fail the first write, the retry, or every
// write (`frame=*`).
class SpillFaultInjector {
 public:
  enum class Action { kNone, kEnospc, kShortWrite, kCorrupt };

  explicit SpillFaultInjector(std::optional<FaultSpec> spec)
      : spec_(std::move(spec)) {}

  // Claims the next write index and returns the fault to apply to it.
  Action Next() {
    const uint64_t index = writes_++;
    if (!spec_.has_value() || !spec_->MatchesFrame(index)) {
      return Action::kNone;
    }
    switch (spec_->mode) {
      case FaultSpec::Mode::kSpillEnospc:
        return Action::kEnospc;
      case FaultSpec::Mode::kSpillShortWrite:
        return Action::kShortWrite;
      case FaultSpec::Mode::kSpillCorrupt:
        return Action::kCorrupt;
      default:
        return Action::kNone;
    }
  }

 private:
  std::optional<FaultSpec> spec_;
  uint64_t writes_ = 0;
};

// RAII spill file: owns a path and, while writing, a descriptor. The file is
// unlinked on destruction unless the owner is destroyed after the whole
// spill directory was already swept (unlink of a missing path is a no-op),
// so a throw anywhere between creation and the end of the run cannot leak
// the file.
class TempFile {
 public:
  // Creates (O_EXCL) `dir`/`name`; throws SympleIoError on failure.
  TempFile(const std::string& dir, const std::string& name);
  TempFile(TempFile&&) = delete;
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
  ~TempFile();

  const std::string& path() const { return path_; }
  int fd() const { return fd_.get(); }
  // Closes the write descriptor (flushing is the kernel's problem — spill
  // files never need to survive a power loss, only this process).
  void CloseFd() { fd_.Reset(); }

 private:
  std::string path_;
  UniqueFd fd_;
};

// RAII spill directory: mkdtemp under `base` (or the environment's TMPDIR /
// /tmp when `base` is empty). The destructor unlinks every regular file
// still inside and removes the directory — the backstop that keeps crashed
// forked children's half-written files from outliving the run.
class TempDir {
 public:
  explicit TempDir(const std::string& base);
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  ~TempDir();

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Append-only checksummed block writer over a TempFile. Write failures (real
// or injected) surface as SympleIoError; the caller (SpillContext) owns the
// retry-once-on-a-fresh-file policy.
class SpillFileWriter {
 public:
  SpillFileWriter(TempFile* file, SpillFaultInjector* faults)
      : file_(file), faults_(faults) {}

  // Frames `body` as one block and appends it. The injector's action for
  // this write is applied here: enospc fails before any byte lands,
  // short-write leaves a truncated block, corrupt flips one bit in the
  // written body (detected by Verify / the reader, never silently).
  void WriteBlock(uint8_t type, const std::vector<uint8_t>& body);

  // WriteBlock plus read-back verification and in-place recovery, for
  // streams whose earlier blocks cannot be rewritten (the sequential
  // engine's row spill): a failed or corrupt write truncates the file back
  // to its last good offset and retries once; false means the retry also
  // failed — the file is still valid up to its last verified block and the
  // caller must keep this body's rows in memory.
  bool TryWriteBlockVerified(uint8_t type, const std::vector<uint8_t>& body);

  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t blocks_written() const { return blocks_written_; }

 private:
  // Truncates the file (and the write offset) back to `offset`, undoing any
  // partially or corruptly written block beyond it.
  void RewindTo(uint64_t offset, uint64_t blocks);
  // Re-reads the block at `offset` and validates its envelope + checksum.
  bool VerifyBlockAt(uint64_t offset) const;

  TempFile* file_;
  SpillFaultInjector* faults_;  // may be null (no injection)
  uint64_t bytes_written_ = 0;
  uint64_t blocks_written_ = 0;
};

// Streaming block reader with envelope validation. Reads via a plain
// descriptor opened on demand; throws SympleWireError on a short file, bad
// checksum, or version mismatch, SympleIoError on an OS-level read failure.
class SpillFileReader {
 public:
  explicit SpillFileReader(const std::string& path);

  // Reads the next block into *type/*body; false at clean EOF.
  bool NextBlock(uint8_t* type, std::vector<uint8_t>* body);

 private:
  std::string path_;
  UniqueFd fd_;
};

// Re-reads a just-written spill file end to end, validating every block
// envelope. Returns false if any block fails validation (the spill-corrupt
// detection point: data is still in memory, so the caller can retry on a
// fresh file). `expect_blocks` cross-checks the count.
bool VerifySpillFile(const std::string& path, uint64_t expect_blocks);

// Streaming row sink for the sequential engine's hybrid-hash spill
// (docs/spill.md): buffers serialized rows and appends them as verified
// kSpillBlockRows blocks. Rows the disk refuses — after the writer's
// truncate-and-retry — are handed back through `overflow` for in-memory
// processing: a failing disk degrades the memory bound, never the result.
class RowSpillFile {
 public:
  RowSpillFile(const std::string& dir, const std::string& name,
               SpillFaultInjector* faults)
      : file_(dir, name), writer_(&file_, faults) {}

  // Appends one serialized row (rows are self-delimiting; blocks are cut at
  // kSpillBlockTargetBytes boundaries between rows).
  void AppendRow(const uint8_t* row, size_t size, std::vector<uint8_t>* overflow);
  // Writes any buffered partial block; call once before reading back.
  void Finish(std::vector<uint8_t>* overflow);

  const std::string& path() const { return file_.path(); }
  bool has_blocks() const { return writer_.blocks_written() > 0; }
  uint64_t bytes_written() const { return writer_.bytes_written(); }
  void CloseFd() { file_.CloseFd(); }

 private:
  void FlushPending(std::vector<uint8_t>* overflow);

  TempFile file_;
  SpillFileWriter writer_;
  std::vector<uint8_t> pending_;
  bool broken_ = false;  // the disk failed a retried block; stop trying
};

}  // namespace internal
}  // namespace symple

#endif  // SYMPLE_RUNTIME_SPILL_H_
