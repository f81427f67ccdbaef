#include "tracker/vessel_state.h"

#include "geo/snapshot_io.h"
#include "stream/snapshot_io.h"

namespace maritime::tracker {

void VesselState::ResetMotionState() {
  has_velocity = false;
  recent_velocities.clear();
  heading_diffs.clear();
  ClearStop();
  stop_active = false;
  stop_start_tau = kInvalidTimestamp;
  slow_buffer.clear();
  slow_active = false;
  slow_start_tau = kInvalidTimestamp;
  consecutive_outliers = 0;
}

void VesselState::SaveTo(snapshot::Writer& w) const {
  w.Bool(has_last);
  stream::SavePositionTuple(last, w);
  w.Bool(has_velocity);
  geo::SaveVelocity(v_prev, w);
  w.U64(recent_velocities.size());
  for (size_t i = 0; i < recent_velocities.size(); ++i) {
    geo::SaveVelocity(recent_velocities[i].v, w);
  }
  w.U64(heading_diffs.size());
  for (size_t i = 0; i < heading_diffs.size(); ++i) w.F64(heading_diffs[i]);
  w.U64(stop_buffer.size());
  for (const auto& p : stop_buffer) stream::SavePositionTuple(p, w);
  w.Bool(stop_active);
  w.I64(stop_start_tau);
  w.U64(slow_buffer.size());
  for (const auto& p : slow_buffer) stream::SavePositionTuple(p, w);
  w.Bool(slow_active);
  w.I64(slow_start_tau);
  geo::SaveGeoPoint(slow_anchor, w);
  w.Bool(gap_open);
  w.I64(gap_start_tau);
  w.I32(consecutive_outliers);
  w.U64(accepted_count);
  w.F64(odometer_m);
}

Status VesselState::RestoreFrom(snapshot::Reader& r) {
  *this = VesselState{};
  uint64_t n = 0;
  bool ok = r.Bool(&has_last) && stream::LoadPositionTuple(r, &last) &&
            r.Bool(&has_velocity) && geo::LoadVelocity(r, &v_prev) &&
            r.Count(&n, sizeof(double) * 2);
  if (!ok) return snapshot::CorruptionIn("vessel state");
  // Rings are restored at their saved size; a snapshot with more entries
  // than history_size keeps that size (HistoryRing::Push drops one entry
  // per push once full).
  for (uint64_t i = 0; i < n; ++i) {
    geo::Velocity v;
    if (!geo::LoadVelocity(r, &v)) return snapshot::CorruptionIn("vessel state");
    recent_velocities.Push(VelocitySample::Of(v), n);
  }
  if (!r.Count(&n, sizeof(double))) return snapshot::CorruptionIn("vessel state");
  for (uint64_t i = 0; i < n; ++i) {
    double d = 0.0;
    if (!r.F64(&d)) return snapshot::CorruptionIn("vessel state");
    heading_diffs.Push(d, n);
  }
  if (!r.Count(&n, sizeof(uint32_t))) return snapshot::CorruptionIn("vessel state");
  for (uint64_t i = 0; i < n; ++i) {
    stream::PositionTuple p;
    if (!stream::LoadPositionTuple(r, &p)) {
      return snapshot::CorruptionIn("vessel state");
    }
    PushStop(p);  // rebuilds the centroid sums in buffer order
  }
  ok = r.Bool(&stop_active) && r.I64(&stop_start_tau) &&
       r.Count(&n, sizeof(uint32_t));
  if (!ok) return snapshot::CorruptionIn("vessel state");
  for (uint64_t i = 0; i < n; ++i) {
    stream::PositionTuple p;
    if (!stream::LoadPositionTuple(r, &p)) {
      return snapshot::CorruptionIn("vessel state");
    }
    slow_buffer.push_back(p);
  }
  ok = r.Bool(&slow_active) && r.I64(&slow_start_tau) &&
       geo::LoadGeoPoint(r, &slow_anchor) && r.Bool(&gap_open) &&
       r.I64(&gap_start_tau) && r.I32(&consecutive_outliers) &&
       r.U64(&accepted_count) && r.F64(&odometer_m);
  if (!ok) return snapshot::CorruptionIn("vessel state");
  last_trig = geo::LatTrig::Of(last.pos);
  return Status::OK();
}

}  // namespace maritime::tracker
