// Checkpoint serialization of the tracking layer: MobilityTracker,
// Compressor, and ShardedMobilityTracker. Kept out of the hot-path
// translation units; the wire layout notes live in DESIGN.md §9.

#include <algorithm>
#include <vector>

#include "tracker/compressor.h"
#include "tracker/mobility_tracker.h"
#include "tracker/sharded_tracker.h"

namespace maritime::tracker {
namespace {

constexpr uint8_t kTrackerFormatVersion = 1;
constexpr uint8_t kCompressorFormatVersion = 1;
/// v2 dropped v1's 32-byte tail of lifetime slide totals (slides,
/// busy_seconds, tuples, critical_points) that nothing read.
constexpr uint8_t kShardedFormatVersion = 2;

}  // namespace

void MobilityTracker::SaveTo(snapshot::Writer& w) const {
  w.U8(kTrackerFormatVersion);
  std::vector<uint32_t> order(vessels_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.end(),
            [&](uint32_t a, uint32_t b) { return mmsis_[a] < mmsis_[b]; });
  w.U64(order.size());
  for (const uint32_t i : order) {
    w.U32(mmsis_[i]);
    vessels_[i].SaveTo(w);
  }
  w.U64(stats_.processed);
  w.U64(stats_.accepted);
  w.U64(stats_.stale_discarded);
  w.U64(stats_.outliers_discarded);
  w.U64(stats_.outlier_resets);
  w.U64(stats_.critical_points);
}

void MobilityTracker::ClearVessels() {
  vessels_.clear();
  mmsis_.clear();
  index_.clear();
}

Status MobilityTracker::RestoreFrom(snapshot::Reader& r) {
  ClearVessels();
  stats_ = TrackerStats{};
  uint8_t version = 0;
  if (!r.U8(&version)) return snapshot::CorruptionIn("mobility tracker");
  if (version > kTrackerFormatVersion) {
    return snapshot::VersionError("mobility tracker");
  }
  uint64_t n = 0;
  if (!r.Count(&n, sizeof(uint32_t))) {
    return snapshot::CorruptionIn("mobility tracker");
  }
  for (uint64_t i = 0; i < n; ++i) {
    stream::Mmsi mmsi = 0;
    if (!r.U32(&mmsi)) {
      ClearVessels();
      return snapshot::CorruptionIn("mobility tracker");
    }
    VesselState vs;
    if (const Status s = vs.RestoreFrom(r); !s.ok()) {
      ClearVessels();
      return s;
    }
    StateOf(mmsi) = std::move(vs);
  }
  const bool ok = r.U64(&stats_.processed) && r.U64(&stats_.accepted) &&
                  r.U64(&stats_.stale_discarded) &&
                  r.U64(&stats_.outliers_discarded) &&
                  r.U64(&stats_.outlier_resets) &&
                  r.U64(&stats_.critical_points);
  if (!ok) {
    ClearVessels();
    stats_ = TrackerStats{};
    return snapshot::CorruptionIn("mobility tracker");
  }
  return Status::OK();
}

void Compressor::SaveTo(snapshot::Writer& w) const {
  w.U8(kCompressorFormatVersion);
  w.U64(stats_.raw_positions);
  w.U64(stats_.critical_points);
}

Status Compressor::RestoreFrom(snapshot::Reader& r) {
  stats_ = CompressionStats{};
  uint8_t version = 0;
  if (!r.U8(&version)) return snapshot::CorruptionIn("compressor");
  if (version > kCompressorFormatVersion) {
    return snapshot::VersionError("compressor");
  }
  if (!r.U64(&stats_.raw_positions) || !r.U64(&stats_.critical_points)) {
    stats_ = CompressionStats{};
    return snapshot::CorruptionIn("compressor");
  }
  return Status::OK();
}

void ShardedMobilityTracker::SaveTo(snapshot::Writer& w) const {
  w.U8(kShardedFormatVersion);
  w.U32(static_cast<uint32_t>(shards_.size()));
  for (const Shard& s : shards_) {
    s.tracker.SaveTo(w);
    s.compressor.SaveTo(w);
  }
}

Status ShardedMobilityTracker::RestoreFrom(snapshot::Reader& r) {
  uint8_t version = 0;
  if (!r.U8(&version)) return snapshot::CorruptionIn("sharded tracker");
  if (version > kShardedFormatVersion) {
    return snapshot::VersionError("sharded tracker");
  }
  uint32_t count = 0;
  if (!r.U32(&count)) return snapshot::CorruptionIn("sharded tracker");
  if (count != shards_.size()) {
    return Status::InvalidArgument(
        "snapshot: shard count mismatch (MMSI routing would change)");
  }
  for (Shard& s : shards_) {
    if (const Status st = s.tracker.RestoreFrom(r); !st.ok()) return st;
    if (const Status st = s.compressor.RestoreFrom(r); !st.ok()) return st;
    s.inbox.clear();
    s.slide_out.clear();
  }
  if (version == 1) {
    uint64_t slides = 0, tuples = 0, critical_points = 0;
    double busy_seconds = 0.0;
    if (!r.U64(&slides) || !r.F64(&busy_seconds) || !r.U64(&tuples) ||
        !r.U64(&critical_points)) {
      return snapshot::CorruptionIn("sharded tracker");
    }
  }
  return Status::OK();
}

}  // namespace maritime::tracker
