// Checkpoint serialization of the surveillance layer: the spatial-fact
// table, the live vessel index, and the CE recognizers. Wire layout notes
// live in DESIGN.md §9.

#include <algorithm>
#include <vector>

#include "maritime/live_index.h"
#include "maritime/me_stream.h"
#include "maritime/recognizer.h"
#include "snapshot/codec.h"
#include "tracker/snapshot_io.h"

namespace maritime::surveillance {
namespace {

constexpr uint8_t kFactTableFormatVersion = 1;
constexpr uint8_t kLiveIndexFormatVersion = 1;
// v2 drops v1's 24-byte feed-counter tail (critical points, ME events,
// spatial facts fed), which nothing read; v1 images still restore.
constexpr uint8_t kRecognizerFormatVersion = 2;
// v2 drops v1's 48-byte lifetime-totals tail (Recognize calls, recognized
// items, input events, cache hits/misses/evictions), which nothing read;
// v1 images still restore.
constexpr uint8_t kPartitionedFormatVersion = 2;

/// Reads and discards `words` u64s of a v1 tail.
bool SkipV1Tail(snapshot::Reader& r, int words) {
  uint64_t unused = 0;
  for (int i = 0; i < words; ++i) {
    if (!r.U64(&unused)) return false;
  }
  return true;
}

}  // namespace

void SpatialFactTable::SaveTo(snapshot::Writer& w) const {
  w.U8(kFactTableFormatVersion);
  w.U64(groups_.size());
  for (const auto& [mmsi, vec] : groups_) {
    w.U32(mmsi);
    w.U64(vec.size());
    for (const Group& g : vec) {
      w.I64(g.t);
      w.U64(g.areas.size());
      for (const int32_t area : g.areas) w.I32(area);
    }
  }
}

Status SpatialFactTable::RestoreFrom(snapshot::Reader& r) {
  groups_.clear();
  fact_count_ = 0;
  const auto fail = [this] {
    groups_.clear();
    fact_count_ = 0;
    return snapshot::CorruptionIn("spatial fact table");
  };
  uint8_t version = 0;
  if (!r.U8(&version)) return fail();
  if (version > kFactTableFormatVersion) {
    return snapshot::VersionError("spatial fact table");
  }
  uint64_t vessels = 0;
  if (!r.Count(&vessels, sizeof(uint32_t) + sizeof(uint64_t))) return fail();
  for (uint64_t i = 0; i < vessels; ++i) {
    stream::Mmsi mmsi = 0;
    uint64_t ngroups = 0;
    if (!r.U32(&mmsi) ||
        !r.Count(&ngroups, sizeof(int64_t) + sizeof(uint64_t))) {
      return fail();
    }
    auto& vec = groups_[mmsi];
    vec.reserve(ngroups);
    for (uint64_t j = 0; j < ngroups; ++j) {
      Group g;
      uint64_t nareas = 0;
      if (!r.I64(&g.t) || !r.Count(&nareas, sizeof(int32_t))) return fail();
      g.areas.reserve(nareas);
      for (uint64_t k = 0; k < nareas; ++k) {
        int32_t area = 0;
        if (!r.I32(&area)) return fail();
        g.areas.push_back(area);
      }
      // Invariants IsCloseAt/AreasCloseAt rely on: per-vessel groups sorted
      // by time, areas sorted within a group.
      if (!std::is_sorted(g.areas.begin(), g.areas.end())) return fail();
      if (!vec.empty() && vec.back().t > g.t) return fail();
      fact_count_ += g.areas.size();
      vec.push_back(std::move(g));
    }
  }
  return Status::OK();
}

void LiveVesselIndex::SaveTo(snapshot::Writer& w) const {
  w.U8(kLiveIndexFormatVersion);
  w.F64(cell_deg_);
  std::vector<stream::Mmsi> keys;
  keys.reserve(vessels_.size());
  for (const auto& [mmsi, v] : vessels_) keys.push_back(mmsi);
  std::sort(keys.begin(), keys.end());
  w.U64(keys.size());
  for (const stream::Mmsi mmsi : keys) {
    const LiveVessel& v = vessels_.at(mmsi);
    w.U32(v.mmsi);
    geo::SaveGeoPoint(v.pos, w);
    w.I64(v.tau);
    w.F64(v.speed_knots);
    w.F64(v.heading_deg);
    w.Bool(v.in_gap);
  }
  // Cells verbatim (ordered map, per-cell insertion order preserved), so
  // query result ordering survives the round trip bit for bit.
  w.U64(cells_.size());
  for (const auto& [key, mmsis] : cells_) {
    w.I64(key);
    w.U64(mmsis.size());
    for (const stream::Mmsi mmsi : mmsis) w.U32(mmsi);
  }
}

Status LiveVesselIndex::RestoreFrom(snapshot::Reader& r) {
  vessels_.clear();
  vessel_cell_.clear();
  cells_.clear();
  const auto fail = [this] {
    vessels_.clear();
    vessel_cell_.clear();
    cells_.clear();
    return snapshot::CorruptionIn("live vessel index");
  };
  uint8_t version = 0;
  if (!r.U8(&version)) return fail();
  if (version > kLiveIndexFormatVersion) {
    return snapshot::VersionError("live vessel index");
  }
  double cell_deg = 0.0;
  if (!r.F64(&cell_deg)) return fail();
  if (cell_deg != cell_deg_) {
    return Status::InvalidArgument(
        "snapshot: live index cell resolution mismatch");
  }
  uint64_t n = 0;
  if (!r.Count(&n, sizeof(uint32_t) + 2 * sizeof(double) + sizeof(int64_t))) {
    return fail();
  }
  for (uint64_t i = 0; i < n; ++i) {
    LiveVessel v;
    if (!r.U32(&v.mmsi) || !geo::LoadGeoPoint(r, &v.pos) || !r.I64(&v.tau) ||
        !r.F64(&v.speed_knots) || !r.F64(&v.heading_deg) ||
        !r.Bool(&v.in_gap)) {
      return fail();
    }
    vessels_[v.mmsi] = v;
  }
  uint64_t ncells = 0;
  if (!r.Count(&ncells, sizeof(int64_t) + sizeof(uint64_t))) return fail();
  for (uint64_t i = 0; i < ncells; ++i) {
    CellKey key = 0;
    uint64_t count = 0;
    if (!r.I64(&key) || !r.Count(&count, sizeof(uint32_t))) return fail();
    auto& mmsis = cells_[key];
    mmsis.reserve(count);
    for (uint64_t j = 0; j < count; ++j) {
      stream::Mmsi mmsi = 0;
      if (!r.U32(&mmsi)) return fail();
      // Every grid entry must name a stored vessel, exactly once.
      if (vessels_.find(mmsi) == vessels_.end() ||
          !vessel_cell_.try_emplace(mmsi, key).second) {
        return fail();
      }
      mmsis.push_back(mmsi);
    }
  }
  if (vessel_cell_.size() != vessels_.size()) return fail();
  return Status::OK();
}

void CERecognizer::SaveTo(snapshot::Writer& w) const {
  w.U8(kRecognizerFormatVersion);
  facts_.SaveTo(w);
  engine_->SaveTo(w);
}

Status CERecognizer::RestoreFrom(snapshot::Reader& r) {
  uint8_t version = 0;
  if (!r.U8(&version)) return snapshot::CorruptionIn("recognizer");
  if (version > kRecognizerFormatVersion) {
    return snapshot::VersionError("recognizer");
  }
  if (const Status s = facts_.RestoreFrom(r); !s.ok()) return s;
  if (const Status s = engine_->RestoreFrom(r); !s.ok()) return s;
  if (version == 1 && !SkipV1Tail(r, 3)) {
    return snapshot::CorruptionIn("recognizer");
  }
  return Status::OK();
}

void PartitionedRecognizer::SaveTo(snapshot::Writer& w) const {
  w.U8(kPartitionedFormatVersion);
  w.U32(static_cast<uint32_t>(parts_.size()));
  for (const Partition& p : parts_) {
    w.F64(p.min_lon);
    p.rec->SaveTo(w);
  }
}

Status PartitionedRecognizer::RestoreFrom(snapshot::Reader& r) {
  uint8_t version = 0;
  if (!r.U8(&version)) return snapshot::CorruptionIn("partitioned recognizer");
  if (version > kPartitionedFormatVersion) {
    return snapshot::VersionError("partitioned recognizer");
  }
  uint32_t count = 0;
  if (!r.U32(&count)) return snapshot::CorruptionIn("partitioned recognizer");
  if (count != parts_.size()) {
    return Status::InvalidArgument(
        "snapshot: partition count mismatch (ME routing would change)");
  }
  for (Partition& p : parts_) {
    double min_lon = 0.0;
    if (!r.F64(&min_lon)) {
      return snapshot::CorruptionIn("partitioned recognizer");
    }
    if (min_lon != p.min_lon) {
      return Status::InvalidArgument(
          "snapshot: partition band bounds mismatch");
    }
    if (const Status s = p.rec->RestoreFrom(r); !s.ok()) return s;
  }
  if (version == 1 && !SkipV1Tail(r, 6)) {
    return snapshot::CorruptionIn("partitioned recognizer");
  }
  return Status::OK();
}

}  // namespace maritime::surveillance
