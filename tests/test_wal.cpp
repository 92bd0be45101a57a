// Wal framing + recovery contract, including the torn-tail fuzz sweeps:
// truncate the record log at EVERY byte offset inside the last frame and
// flip a bit at EVERY byte offset of the last frame — in all cases
// recover() must surface exactly the intact prefix, flag the log torn, and
// never resurrect a damaged record.
#include "storage/wal.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/frame.hpp"

namespace colony::storage {
namespace {

Bytes bytes_of(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

/// A small log with distinguishable records; returns the payloads.
std::vector<Bytes> fill(Wal& wal, std::size_t n) {
  std::vector<Bytes> payloads;
  for (std::size_t i = 0; i < n; ++i) {
    payloads.push_back(bytes_of("record-" + std::to_string(i) +
                                std::string(i % 7, '#')));
    wal.append(static_cast<std::uint32_t>(i + 1), payloads.back());
  }
  return payloads;
}

TEST(Wal, EmptyLogRecoversToGenesis) {
  const Wal wal;
  const WalRecovery rec = wal.recover();
  EXPECT_FALSE(rec.checkpoint.has_value());
  EXPECT_EQ(rec.checkpoint_offset, 0u);
  EXPECT_TRUE(rec.tail.empty());
  EXPECT_EQ(rec.valid_bytes, 0u);
  EXPECT_FALSE(rec.torn);
}

TEST(Wal, AppendedRecordsRecoverInOrder) {
  Wal wal;
  const auto payloads = fill(wal, 5);
  const WalRecovery rec = wal.recover();
  EXPECT_FALSE(rec.torn);
  EXPECT_EQ(rec.valid_bytes, wal.log_bytes());
  ASSERT_EQ(rec.tail.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(rec.tail[i].type, i + 1);
    EXPECT_EQ(rec.tail[i].payload, payloads[i]);
  }
}

TEST(Wal, CheckpointAnchorsTheTail) {
  Wal wal;
  fill(wal, 3);
  wal.write_checkpoint(bytes_of("snapshot-at-3"));
  const auto later = fill(wal, 2);
  const WalRecovery rec = wal.recover();
  ASSERT_TRUE(rec.checkpoint.has_value());
  EXPECT_EQ(*rec.checkpoint, bytes_of("snapshot-at-3"));
  ASSERT_EQ(rec.tail.size(), 2u);  // only records after the anchor
  EXPECT_EQ(rec.tail[0].payload, later[0]);
  EXPECT_EQ(rec.tail[1].payload, later[1]);
  EXPECT_EQ(wal.records_since_checkpoint(), 2u);
}

TEST(Wal, RecordLogIsTheWireFramesConcatenated) {
  // The WAL has no framing of its own: its record log is byte for byte the
  // frames the transport would put on a link for the same payloads.
  Wal wal;
  Bytes expected;
  for (std::uint32_t i = 0; i < 6; ++i) {
    const Bytes payload = bytes_of(std::string(i * 5, 'x'));
    wal.append(i + 1, payload);
    const Bytes frm = sim::frame::encode(i + 1, payload);
    expected.insert(expected.end(), frm.begin(), frm.end());
  }
  EXPECT_EQ(wal.raw_log(), expected);
}

TEST(Wal, RecoverIsIdempotent) {
  Wal wal;
  fill(wal, 4);
  wal.write_checkpoint(bytes_of("cp"));
  fill(wal, 2);
  const WalRecovery a = wal.recover();
  const WalRecovery b = wal.recover();
  EXPECT_EQ(a.checkpoint, b.checkpoint);
  EXPECT_EQ(a.checkpoint_offset, b.checkpoint_offset);
  EXPECT_EQ(a.tail, b.tail);
  EXPECT_EQ(a.valid_bytes, b.valid_bytes);
}

// --- torn-tail fuzz -------------------------------------------------------

TEST(Wal, TruncationAtEveryByteOfLastRecordDropsExactlyIt) {
  Wal pristine;
  const auto payloads = fill(pristine, 4);
  const std::size_t full = pristine.log_bytes();
  const std::size_t last_frame =
      sim::frame::kOverheadBytes + payloads.back().size();
  const std::size_t boundary = full - last_frame;

  for (std::size_t cut = boundary; cut < full; ++cut) {
    Wal wal = pristine;
    wal.mutable_log().resize(cut);
    const WalRecovery rec = wal.recover();
    ASSERT_EQ(rec.tail.size(), 3u) << "cut at byte " << cut;
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(rec.tail[i].payload, payloads[i]) << "cut at byte " << cut;
    }
    EXPECT_EQ(rec.valid_bytes, boundary) << "cut at byte " << cut;
    // A cut exactly on the frame boundary leaves a well-formed (shorter)
    // log; any cut inside the frame is a torn tail.
    EXPECT_EQ(rec.torn, cut != boundary) << "cut at byte " << cut;
  }
}

TEST(Wal, BitFlipAtEveryByteOfLastRecordNeverResurrectsIt) {
  Wal pristine;
  const auto payloads = fill(pristine, 4);
  const std::size_t full = pristine.log_bytes();
  const std::size_t last_frame =
      sim::frame::kOverheadBytes + payloads.back().size();
  const std::size_t boundary = full - last_frame;

  for (std::size_t at = boundary; at < full; ++at) {
    for (const std::uint8_t mask : {0x01, 0x80}) {
      Wal wal = pristine;
      wal.mutable_log()[at] ^= mask;
      const WalRecovery rec = wal.recover();
      EXPECT_TRUE(rec.torn) << "flip 0x" << std::hex << int(mask)
                            << std::dec << " at byte " << at;
      ASSERT_EQ(rec.tail.size(), 3u) << "flip at byte " << at;
      for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(rec.tail[i].payload, payloads[i]) << "flip at byte " << at;
      }
      EXPECT_EQ(rec.valid_bytes, boundary) << "flip at byte " << at;
    }
  }
}

TEST(Wal, CorruptionMidLogDropsEverythingAfterIt) {
  // The recovery contract is prefix-only: a record after a damaged frame is
  // unreachable even if its own bytes are intact (framing offsets cannot be
  // trusted past the first tear).
  Wal pristine;
  const auto payloads = fill(pristine, 5);
  const std::size_t frame1 = sim::frame::kOverheadBytes + payloads[0].size();
  Wal wal = pristine;
  wal.mutable_log()[frame1 + 2] ^= 0x40;  // inside record #2
  const WalRecovery rec = wal.recover();
  EXPECT_TRUE(rec.torn);
  ASSERT_EQ(rec.tail.size(), 1u);
  EXPECT_EQ(rec.tail[0].payload, payloads[0]);
  EXPECT_EQ(rec.valid_bytes, frame1);
}

TEST(Wal, DamagedNewestCheckpointFallsBackToOlder) {
  Wal wal;
  fill(wal, 2);
  wal.write_checkpoint(bytes_of("older"));
  fill(wal, 2);
  const std::size_t newest_at = wal.checkpoint_bytes();
  wal.write_checkpoint(bytes_of("newest"));

  // Flip a bit in every byte of the newest checkpoint frame in turn: the
  // older checkpoint must be chosen each time, and the records after its
  // anchor must come back as the tail.
  const Bytes intact_cp = wal.raw_checkpoints();
  for (std::size_t at = newest_at; at < intact_cp.size(); ++at) {
    wal.mutable_checkpoints() = intact_cp;
    wal.mutable_checkpoints()[at] ^= 0x04;
    const WalRecovery rec = wal.recover();
    ASSERT_TRUE(rec.checkpoint.has_value()) << "flip at byte " << at;
    EXPECT_EQ(*rec.checkpoint, bytes_of("older")) << "flip at byte " << at;
    EXPECT_EQ(rec.tail.size(), 2u) << "flip at byte " << at;
    EXPECT_TRUE(rec.torn) << "flip at byte " << at;
  }
}

TEST(Wal, CheckpointAheadOfValidLogIsRejected) {
  // A checkpoint anchored past the intact record prefix describes state the
  // log cannot prove — it must be skipped (else recovery would trust data
  // that the torn tail no longer backs).
  Wal wal;
  const auto payloads = fill(wal, 3);
  wal.write_checkpoint(bytes_of("over-eager"));
  const std::size_t last_frame =
      sim::frame::kOverheadBytes + payloads.back().size();
  wal.mutable_log().resize(wal.log_bytes() - last_frame + 3);  // tear #3
  const WalRecovery rec = wal.recover();
  EXPECT_FALSE(rec.checkpoint.has_value());
  EXPECT_TRUE(rec.torn);
  ASSERT_EQ(rec.tail.size(), 2u);
  EXPECT_EQ(rec.tail[0].payload, payloads[0]);
  EXPECT_EQ(rec.tail[1].payload, payloads[1]);
}

TEST(Wal, TruncateToCleansTornTailForNewAppends) {
  Wal wal;
  fill(wal, 3);
  wal.mutable_log().resize(wal.log_bytes() - 2);  // tear the last frame
  WalRecovery rec = wal.recover();
  ASSERT_TRUE(rec.torn);
  wal.truncate_to(rec.valid_bytes);
  wal.append(99, bytes_of("fresh"));
  rec = wal.recover();
  EXPECT_FALSE(rec.torn);
  ASSERT_EQ(rec.tail.size(), 3u);
  EXPECT_EQ(rec.tail.back().type, 99u);
  EXPECT_EQ(rec.tail.back().payload, bytes_of("fresh"));
}

// --- checkpoint truncation ------------------------------------------------

TEST(Wal, TruncateToCheckpointReclaimsPrefixAndKeepsRecovery) {
  Wal wal;
  fill(wal, 3);
  wal.write_checkpoint(bytes_of("snap"));
  const auto later = fill(wal, 2);

  const WalRecovery before = wal.recover();
  const std::uint64_t anchor = before.checkpoint_offset;
  ASSERT_GT(anchor, 0u);

  const std::uint64_t dropped = wal.truncate_to_checkpoint();
  EXPECT_EQ(dropped, anchor);
  EXPECT_EQ(wal.log_base(), anchor);
  EXPECT_EQ(wal.truncated_bytes(), anchor);

  // Recovery after truncation is logically unchanged: same checkpoint, same
  // tail, same logical end — only the dead prefix is gone from memory.
  const WalRecovery after = wal.recover();
  EXPECT_FALSE(after.torn);
  ASSERT_TRUE(after.checkpoint.has_value());
  EXPECT_EQ(*after.checkpoint, bytes_of("snap"));
  EXPECT_EQ(after.checkpoint_offset, anchor);
  EXPECT_EQ(after.valid_bytes, before.valid_bytes);
  ASSERT_EQ(after.tail.size(), 2u);
  EXPECT_EQ(after.tail[0].payload, later[0]);
  EXPECT_EQ(after.tail[1].payload, later[1]);

  // The log keeps growing normally from the truncated base.
  wal.append(42, bytes_of("post-truncation"));
  const WalRecovery grown = wal.recover();
  ASSERT_EQ(grown.tail.size(), 3u);
  EXPECT_EQ(grown.tail.back().payload, bytes_of("post-truncation"));
}

TEST(Wal, TruncateToCheckpointWithoutCheckpointIsANoop) {
  Wal wal;
  fill(wal, 4);
  const std::size_t before = wal.log_bytes();
  EXPECT_EQ(wal.truncate_to_checkpoint(), 0u);
  EXPECT_EQ(wal.log_bytes(), before);
  EXPECT_EQ(wal.log_base(), 0u);
}

TEST(Wal, TruncateToCheckpointIsIdempotent) {
  Wal wal;
  fill(wal, 3);
  wal.write_checkpoint(bytes_of("snap"));
  fill(wal, 2);
  EXPECT_GT(wal.truncate_to_checkpoint(), 0u);
  // The surviving checkpoint anchors exactly at log_base: nothing more to
  // reclaim until a NEWER checkpoint lands.
  EXPECT_EQ(wal.truncate_to_checkpoint(), 0u);
}

TEST(Wal, TruncateToCheckpointShedsSupersededCheckpoints) {
  Wal wal;
  fill(wal, 2);
  wal.write_checkpoint(bytes_of("older"));
  fill(wal, 2);
  wal.write_checkpoint(bytes_of("newest"));
  const std::size_t two_cp_bytes = wal.checkpoint_bytes();

  EXPECT_GT(wal.truncate_to_checkpoint(), 0u);
  EXPECT_LT(wal.checkpoint_bytes(), two_cp_bytes);  // "older" gone
  EXPECT_EQ(wal.log_bytes(), 0u);                   // everything folded
  const WalRecovery rec = wal.recover();
  ASSERT_TRUE(rec.checkpoint.has_value());
  EXPECT_EQ(*rec.checkpoint, bytes_of("newest"));
  EXPECT_TRUE(rec.tail.empty());
}

TEST(Wal, TornTruncationIntermediateStateStillRecovers) {
  // Crash between truncation's two steps: the checkpoint stream is already
  // compacted but the record log still holds the full prefix. Recovery must
  // behave exactly as if truncation had completed (or never started).
  Wal pristine;
  fill(pristine, 2);
  pristine.write_checkpoint(bytes_of("older"));
  const auto later = fill(pristine, 2);
  pristine.write_checkpoint(bytes_of("newest"));
  const WalRecovery want = pristine.recover();

  Wal done = pristine;
  done.truncate_to_checkpoint();

  Wal intermediate;  // compacted checkpoints + untouched log, base still 0
  intermediate.mutable_log() = pristine.raw_log();
  intermediate.mutable_checkpoints() = done.raw_checkpoints();
  const WalRecovery rec = intermediate.recover();
  ASSERT_TRUE(rec.checkpoint.has_value());
  EXPECT_EQ(*rec.checkpoint, bytes_of("newest"));
  EXPECT_EQ(rec.checkpoint_offset, want.checkpoint_offset);
  EXPECT_EQ(rec.tail, want.tail);
  EXPECT_FALSE(rec.torn);
}

TEST(Wal, TruncateToCheckpointNeverChangesRecoveryUnderAnyByteFlip) {
  // truncate_to_checkpoint() picks its survivor with recover()'s rule, so
  // on any disk — here a two-checkpoint disk with one byte of either
  // stream flipped — recovery after truncation returns what recovery
  // before it would have.
  Wal pristine;
  fill(pristine, 2);
  pristine.write_checkpoint(bytes_of("older"));
  fill(pristine, 2);
  pristine.write_checkpoint(bytes_of("newest"));
  fill(pristine, 2);

  std::size_t reclaimed = 0;
  const auto expect_same = [&](const Wal& disk, const std::string& where) {
    const WalRecovery want = disk.recover();
    Wal truncated = disk;
    if (truncated.truncate_to_checkpoint() > 0) ++reclaimed;
    const WalRecovery got = truncated.recover();
    EXPECT_EQ(got.checkpoint, want.checkpoint) << where;
    EXPECT_EQ(got.checkpoint_offset, want.checkpoint_offset) << where;
    EXPECT_EQ(got.tail, want.tail) << where;
    EXPECT_EQ(got.torn, want.torn) << where;
    EXPECT_EQ(got.valid_bytes, want.valid_bytes) << where;
  };
  for (std::size_t at = 0; at < pristine.log_bytes(); ++at) {
    Wal disk = pristine;
    disk.mutable_log()[at] ^= 0x20;
    expect_same(disk, "log byte " + std::to_string(at));
  }
  for (std::size_t at = 0; at < pristine.checkpoint_bytes(); ++at) {
    Wal disk = pristine;
    disk.mutable_checkpoints()[at] ^= 0x20;
    expect_same(disk, "checkpoint byte " + std::to_string(at));
  }
  // Not vacuous: most flips still leave a checkpoint worth truncating to.
  EXPECT_GT(reclaimed, pristine.log_bytes() / 2);
}

TEST(Wal, TruncatedLogSurvivesTornTailFuzz) {
  // The full torn-tail sweep over a truncated wal: logical offsets must keep
  // lining up when the in-memory stream no longer starts at genesis.
  Wal pristine;
  fill(pristine, 3);
  pristine.write_checkpoint(bytes_of("snap"));
  ASSERT_GT(pristine.truncate_to_checkpoint(), 0u);
  const auto later = fill(pristine, 2);
  const std::size_t full = pristine.log_bytes();
  const std::size_t last_frame =
      sim::frame::kOverheadBytes + later.back().size();
  const std::size_t boundary = full - last_frame;

  for (std::size_t cut = boundary; cut < full; ++cut) {
    Wal wal = pristine;
    wal.mutable_log().resize(cut);
    const WalRecovery rec = wal.recover();
    ASSERT_TRUE(rec.checkpoint.has_value()) << "cut at byte " << cut;
    EXPECT_EQ(*rec.checkpoint, bytes_of("snap")) << "cut at byte " << cut;
    ASSERT_EQ(rec.tail.size(), 1u) << "cut at byte " << cut;
    EXPECT_EQ(rec.tail[0].payload, later[0]) << "cut at byte " << cut;
    EXPECT_EQ(rec.valid_bytes, wal.log_base() + boundary)
        << "cut at byte " << cut;

    // Post-recovery cleanup + append must work against logical offsets.
    wal.truncate_to(rec.valid_bytes);
    wal.append(77, bytes_of("fresh"));
    const WalRecovery again = wal.recover();
    EXPECT_FALSE(again.torn) << "cut at byte " << cut;
    ASSERT_EQ(again.tail.size(), 2u) << "cut at byte " << cut;
    EXPECT_EQ(again.tail.back().payload, bytes_of("fresh"))
        << "cut at byte " << cut;
  }
}

TEST(Wal, CheckpointAfterTruncationAnchorsLogically) {
  Wal wal;
  fill(wal, 3);
  wal.write_checkpoint(bytes_of("first"));
  const std::uint64_t first_drop = wal.truncate_to_checkpoint();
  ASSERT_GT(first_drop, 0u);
  fill(wal, 2);
  wal.write_checkpoint(bytes_of("second"));

  const WalRecovery rec = wal.recover();
  ASSERT_TRUE(rec.checkpoint.has_value());
  EXPECT_EQ(*rec.checkpoint, bytes_of("second"));
  EXPECT_EQ(rec.checkpoint_offset, wal.log_base() + wal.log_bytes());
  EXPECT_TRUE(rec.tail.empty());

  // A second truncation reclaims the two records behind "second" and keeps
  // compounding the logical base.
  const std::uint64_t second_drop = wal.truncate_to_checkpoint();
  EXPECT_GT(second_drop, 0u);
  EXPECT_EQ(wal.truncated_bytes(), first_drop + second_drop);
  EXPECT_EQ(wal.log_base(), first_drop + second_drop);
  EXPECT_EQ(wal.log_bytes(), 0u);
}

TEST(Wal, EmptyPayloadRecordsRoundTrip) {
  Wal wal;
  wal.append(7, Bytes{});
  wal.append(8, Bytes{});
  const WalRecovery rec = wal.recover();
  ASSERT_EQ(rec.tail.size(), 2u);
  EXPECT_EQ(rec.tail[0].type, 7u);
  EXPECT_TRUE(rec.tail[0].payload.empty());
  EXPECT_FALSE(rec.torn);
}

}  // namespace
}  // namespace colony::storage
