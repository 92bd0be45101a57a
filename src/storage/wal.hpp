// Write-ahead log + checkpoint stream: the durability layer under a node.
//
// A Wal models one node's local durable disk inside the simulation: two
// append-only streams of frames in the wire's frame format (sim/frame.hpp).
// A record frame's kind is the caller's record type; a checkpoint frame's
// kind is kCheckpointMagic and its payload is `u64 wal_offset ++ snapshot`.
// The record `type` vocabulary belongs to the caller (DcNode and EdgeNode
// define their own replay enums); the Wal itself only guarantees framing,
// integrity, and the recovery contract:
//
//   * recover() scans the record log from offset 0 and accepts the
//     longest prefix of intact frames — the first torn or corrupt frame
//     ends the scan, and nothing after it is ever surfaced (a partially
//     written record cannot be resurrected);
//   * the newest checkpoint that is (a) CRC-intact, (b) anchored at a
//     valid record-frame boundary, and (c) not ahead of the valid record
//     prefix is chosen as the restore base; damaged or over-eager
//     checkpoints fall back to older ones, and with no usable checkpoint
//     recovery replays the whole log from genesis;
//   * the records strictly after the chosen checkpoint's anchor offset
//     are returned as the replay tail, in append order.
//
// Record-log positions are *logical* offsets: they count bytes since the
// log's genesis, not since the start of the in-memory stream. The two
// coincide until truncate_to_checkpoint() reclaims the prefix below the
// newest checkpoint, after which log_base() reports the logical offset of
// the first byte still present. Anchors, valid_bytes, and
// checkpoint_offset are all logical, so checkpoints stay valid across
// truncations. truncate_to() exists so a restarted node can drop a torn
// tail before appending again.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/binary_codec.hpp"

namespace colony::storage {

struct WalRecord {
  std::uint32_t type = 0;
  Bytes payload;

  bool operator==(const WalRecord&) const = default;
};

/// Everything recover() learned from the two streams.
struct WalRecovery {
  /// Snapshot bytes of the newest usable checkpoint (nullopt: replay from
  /// genesis).
  std::optional<Bytes> checkpoint;
  /// Record-log offset the checkpoint covers: every record at an earlier
  /// offset is already folded into the snapshot.
  std::uint64_t checkpoint_offset = 0;
  /// Records after checkpoint_offset, in append order.
  std::vector<WalRecord> tail;
  /// Logical end of the intact record-log prefix; bytes past it are
  /// garbage.
  std::uint64_t valid_bytes = 0;
  /// True when either stream carried a torn/corrupt tail that was dropped.
  bool torn = false;
};

class Wal {
 public:
  /// Frame `type` marker of checkpoint-stream frames.
  static constexpr std::uint32_t kCheckpointMagic = 0x43503031;  // "CP01"

  /// Append one record frame to the log.
  void append(std::uint32_t type, ByteView payload);

  /// Append a checkpoint frame anchored at the current end of the record
  /// log: the snapshot must describe the state reached by replaying every
  /// record appended so far.
  void write_checkpoint(ByteView snapshot);

  /// Scan both streams and compute the restore plan. Never fails: corrupt
  /// input only shrinks what is recovered. Read-only — recover() on an
  /// untouched Wal is idempotent.
  [[nodiscard]] WalRecovery recover() const;

  /// Drop everything past the intact prefix (post-recovery cleanup so new
  /// appends extend a well-formed log). `valid_bytes` is logical.
  void truncate_to(std::uint64_t valid_bytes);

  /// Reclaim the record-log prefix below the newest usable checkpoint and
  /// drop the checkpoints it supersedes. Ordered so a crash at any point
  /// leaves a recoverable disk: the checkpoint stream is compacted first
  /// (the survivor is the one recover() would pick), then the log prefix
  /// behind its anchor is erased and log_base() advances to the anchor.
  /// Torn tails of either stream are left for truncate_to(), so recover()
  /// returns the same result before and after. Returns the number of log
  /// bytes reclaimed (0 when there is no usable checkpoint or nothing to
  /// drop).
  std::uint64_t truncate_to_checkpoint();

  /// Logical offset of the first byte still present in the record log.
  [[nodiscard]] std::uint64_t log_base() const { return log_base_; }
  /// Total record-log bytes ever reclaimed by truncate_to_checkpoint().
  [[nodiscard]] std::uint64_t truncated_bytes() const {
    return truncated_bytes_;
  }

  /// Records appended since the last checkpoint (checkpoint cadence).
  [[nodiscard]] std::uint64_t records_since_checkpoint() const {
    return records_since_checkpoint_;
  }
  [[nodiscard]] std::uint64_t record_count() const { return record_count_; }
  [[nodiscard]] std::uint64_t checkpoint_count() const {
    return checkpoint_count_;
  }
  [[nodiscard]] std::size_t log_bytes() const { return log_.size(); }
  [[nodiscard]] std::size_t checkpoint_bytes() const { return cp_.size(); }

  /// Raw stream access for the torn-tail fuzz tests (bit flips, truncation)
  /// and for cloning a disk into an isolated recovery probe.
  [[nodiscard]] const Bytes& raw_log() const { return log_; }
  [[nodiscard]] const Bytes& raw_checkpoints() const { return cp_; }
  Bytes& mutable_log() { return log_; }
  Bytes& mutable_checkpoints() { return cp_; }

  void clear();

 private:
  struct Plan;
  /// Scan both streams once and pick the restore base: the one place the
  /// checkpoint-choice rule lives.
  [[nodiscard]] Plan plan() const;

  Bytes log_;
  Bytes cp_;
  std::uint64_t log_base_ = 0;  // logical offset of log_[0]
  std::uint64_t records_since_checkpoint_ = 0;
  std::uint64_t record_count_ = 0;
  std::uint64_t checkpoint_count_ = 0;
  std::uint64_t truncated_bytes_ = 0;
};

}  // namespace colony::storage
