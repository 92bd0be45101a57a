#include "storage/wal.hpp"

#include <algorithm>
#include <cstring>

#include "sim/frame.hpp"

namespace colony::storage {

namespace frame = sim::frame;

namespace {

struct ScannedFrame {
  std::uint64_t offset = 0;  // where the frame starts in the stream
  std::uint32_t type = 0;
  ByteView payload;

  [[nodiscard]] std::uint64_t end() const {
    return offset + frame::kOverheadBytes + payload.size();
  }
};

/// Walk `stream` from offset 0 collecting intact frames; stops at the
/// first frame that is truncated, oversized, or fails its CRC. Returns
/// the length of the intact prefix.
std::uint64_t scan(const Bytes& stream, std::vector<ScannedFrame>& out) {
  std::uint64_t off = 0;
  while (const auto f = frame::decode_front(ByteView(stream).subspan(off))) {
    out.push_back(ScannedFrame{off, f->kind, f->payload});
    off = out.back().end();
  }
  return off;
}

}  // namespace

/// Both streams scanned once, plus the restore base recover() uses.
struct Wal::Plan {
  std::vector<ScannedFrame> records;      // intact record-log prefix
  std::vector<ScannedFrame> checkpoints;  // intact checkpoint prefix
  std::uint64_t log_valid = 0;            // physical end of `records`
  std::uint64_t cp_valid = 0;             // physical end of `checkpoints`
  /// Per checkpoint frame: its logical anchor when it is usable as a
  /// restore base.
  std::vector<std::optional<std::uint64_t>> anchors;
  /// The newest usable checkpoint (index into `checkpoints`).
  std::optional<std::size_t> chosen;
};

Wal::Plan Wal::plan() const {
  Plan p;
  p.log_valid = scan(log_, p.records);
  p.cp_valid = scan(cp_, p.checkpoints);
  const std::uint64_t valid_bytes = log_base_ + p.log_valid;

  // A usable anchor is a logical record-frame boundary inside the intact
  // prefix: the start of an intact record, or the end of the prefix (a
  // checkpoint taken after the last record). Anchors below log_base_
  // point into a reclaimed prefix whose records no longer exist, so such
  // checkpoints cannot seed a replay. Record offsets are ascending, so a
  // binary search finds the boundary.
  const auto usable = [&](std::uint64_t anchor) {
    if (anchor < log_base_ || anchor > valid_bytes) return false;
    if (anchor == valid_bytes) return true;
    const auto it = std::lower_bound(
        p.records.begin(), p.records.end(), anchor - log_base_,
        [](const ScannedFrame& r, std::uint64_t at) { return r.offset < at; });
    return it != p.records.end() && it->offset == anchor - log_base_;
  };

  p.anchors.reserve(p.checkpoints.size());
  for (std::size_t i = 0; i < p.checkpoints.size(); ++i) {
    const ScannedFrame& cp = p.checkpoints[i];
    std::optional<std::uint64_t> anchor;
    // Foreign frames and bodies too short for an anchor are skipped.
    if (cp.type == kCheckpointMagic &&
        cp.payload.size() >= sizeof(std::uint64_t)) {
      std::uint64_t at = 0;
      std::memcpy(&at, cp.payload.data(), sizeof(at));
      if (usable(at)) {
        anchor = at;
        p.chosen = i;  // later frames are newer
      }
    }
    p.anchors.push_back(anchor);
  }
  return p;
}

void Wal::append(std::uint32_t type, ByteView payload) {
  frame::append(log_, type, payload);
  ++records_since_checkpoint_;
  ++record_count_;
}

void Wal::write_checkpoint(ByteView snapshot) {
  Encoder body;
  body.reserve(sizeof(std::uint64_t) + snapshot.size());
  body.u64(log_base_ + log_.size());  // logical anchor
  body.raw(snapshot);
  frame::append(cp_, kCheckpointMagic, body.data());
  records_since_checkpoint_ = 0;
  ++checkpoint_count_;
}

WalRecovery Wal::recover() const {
  const Plan p = plan();
  WalRecovery out;
  out.valid_bytes = log_base_ + p.log_valid;
  out.torn = p.log_valid != log_.size() || p.cp_valid != cp_.size();
  if (p.chosen.has_value()) {
    const ByteView snapshot =
        p.checkpoints[*p.chosen].payload.subspan(sizeof(std::uint64_t));
    out.checkpoint = Bytes(snapshot.begin(), snapshot.end());
    out.checkpoint_offset = *p.anchors[*p.chosen];
  }
  for (const ScannedFrame& r : p.records) {
    if (log_base_ + r.offset < out.checkpoint_offset) {
      continue;  // folded into snapshot
    }
    out.tail.push_back(
        WalRecord{r.type, Bytes(r.payload.begin(), r.payload.end())});
  }
  return out;
}

void Wal::truncate_to(std::uint64_t valid_bytes) {
  if (valid_bytes >= log_base_ && valid_bytes - log_base_ < log_.size()) {
    log_.resize(valid_bytes - log_base_);
  }
  // Drop any torn checkpoint tail as well: rescan and keep the prefix.
  std::vector<ScannedFrame> checkpoints;
  const std::uint64_t cp_valid = scan(cp_, checkpoints);
  if (cp_valid < cp_.size()) cp_.resize(cp_valid);
}

std::uint64_t Wal::truncate_to_checkpoint() {
  // The survivor is the checkpoint recover() would pick, so truncation
  // never drops a byte recovery could still need.
  const Plan p = plan();
  if (!p.chosen.has_value()) return 0;
  const std::uint64_t chosen = *p.anchors[*p.chosen];
  if (chosen <= log_base_) return 0;

  // Step 1: compact the checkpoint stream, keeping every usable frame
  // anchored at or above the chosen checkpoint (in practice: the chosen
  // one) and shedding superseded and over-eager frames. A torn tail stays
  // behind the survivors for truncate_to() to drop, as it would have
  // without truncation. Done first so that a crash between the steps
  // still recovers: the survivor plus the still-complete log at/after its
  // anchor is a valid disk.
  Bytes kept;
  for (std::size_t i = 0; i < p.checkpoints.size(); ++i) {
    if (!p.anchors[i].has_value() || *p.anchors[i] < chosen) continue;
    const ScannedFrame& f = p.checkpoints[i];
    kept.insert(kept.end(), cp_.begin() + static_cast<std::ptrdiff_t>(f.offset),
                cp_.begin() + static_cast<std::ptrdiff_t>(f.end()));
  }
  kept.insert(kept.end(), cp_.begin() + static_cast<std::ptrdiff_t>(p.cp_valid),
              cp_.end());
  cp_ = std::move(kept);

  // Step 2: reclaim the record-log prefix the checkpoint made redundant.
  const std::uint64_t drop = chosen - log_base_;
  log_.erase(log_.begin(), log_.begin() + static_cast<std::ptrdiff_t>(drop));
  log_base_ = chosen;
  truncated_bytes_ += drop;
  return drop;
}

void Wal::clear() {
  log_.clear();
  cp_.clear();
  log_base_ = 0;
  records_since_checkpoint_ = 0;
  record_count_ = 0;
  checkpoint_count_ = 0;
  truncated_bytes_ = 0;
}

}  // namespace colony::storage
