#include "tracker/mobility_tracker.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace maritime::tracker {
namespace {

/// Floor for the denominator of the relative speed-change test, so that a
/// deceleration towards zero still registers as a bounded ratio.
constexpr double kSpeedRatioFloorKnots = 0.5;

/// Minimum velocity history before off-course detection engages; with fewer
/// samples the mean velocity is not yet a trustworthy course abstraction.
constexpr size_t kMinHistoryForOutliers = 3;

size_t Bucket(stream::Mmsi mmsi, size_t buckets) {
  // Fibonacci hashing: MMSIs are dense decimal ranges, so the multiplier's
  // high bits spread them over the table.
  return static_cast<size_t>((uint64_t{mmsi} * 0x9E3779B97F4A7C15ULL) >> 32) &
         (buckets - 1);
}

}  // namespace

geo::GeoPoint MobilityTracker::BufferMedian(
    const std::vector<stream::PositionTuple>& buf) {
  assert(!buf.empty());
  median_scratch_.clear();
  for (const auto& t : buf) median_scratch_.push_back(t.pos);
  return geo::MedianPointInPlace(median_scratch_);
}

MobilityTracker::MobilityTracker(TrackerParams params)
    : params_(params) {
  assert(params_.Validate().ok());
}

int64_t MobilityTracker::SlotOf(stream::Mmsi mmsi) const {
  if (index_.empty()) return -1;
  const size_t mask = index_.size() - 1;
  for (size_t b = Bucket(mmsi, index_.size());; b = (b + 1) & mask) {
    const uint32_t e = index_[b];
    if (e == 0) return -1;
    if (mmsis_[e - 1] == mmsi) return static_cast<int64_t>(e - 1);
  }
}

VesselState& MobilityTracker::StateOf(stream::Mmsi mmsi) {
  const int64_t slot = SlotOf(mmsi);
  if (slot >= 0) return vessels_[static_cast<size_t>(slot)];
  if (2 * (mmsis_.size() + 1) > index_.size()) {
    Rehash(std::max<size_t>(64, 2 * index_.size()));
  }
  mmsis_.push_back(mmsi);
  vessels_.emplace_back();
  size_t b = Bucket(mmsi, index_.size());
  while (index_[b] != 0) b = (b + 1) & (index_.size() - 1);
  index_[b] = static_cast<uint32_t>(mmsis_.size());
  return vessels_.back();
}

void MobilityTracker::Rehash(size_t buckets) {
  index_.assign(buckets, 0);
  for (size_t i = 0; i < mmsis_.size(); ++i) {
    size_t b = Bucket(mmsis_[i], buckets);
    while (index_[b] != 0) b = (b + 1) & (buckets - 1);
    index_[b] = static_cast<uint32_t>(i + 1);
  }
}

const VesselState* MobilityTracker::FindVessel(stream::Mmsi mmsi) const {
  const int64_t slot = SlotOf(mmsi);
  return slot < 0 ? nullptr : &vessels_[static_cast<size_t>(slot)];
}

void MobilityTracker::Emit(const CriticalPoint& cp,
                           std::vector<CriticalPoint>* out) {
  ++stats_.critical_points;
  out->push_back(cp);
}

bool MobilityTracker::IsOutlier(const VesselState& vs,
                                const VelocitySample& now) const {
  const HistoryRing<VelocitySample>& ring = vs.recent_velocities;
  if (ring.size() < kMinHistoryForOutliers) return false;
  // The mean velocity of the ring, from the components cached at push
  // time, summed oldest to newest as geo::MeanVelocity sums them.
  double east = 0.0, north = 0.0;
  for (size_t i = 0; i < ring.size(); ++i) {
    east += ring[i].east_mps;
    north += ring[i].north_mps;
  }
  const geo::Velocity v_m = geo::MeanVelocityFromSums(east, north, ring.size());
  const double deviation =
      geo::VelocityDeviationKnots(now.east_mps, now.north_mps, v_m);
  const double threshold =
      std::max(params_.outlier_min_speed_knots,
               params_.outlier_speed_factor * v_m.speed_knots);
  return deviation > threshold;
}

void MobilityTracker::CloseStop(VesselState& vs, stream::Mmsi mmsi,
                                Timestamp end_tau,
                                std::vector<CriticalPoint>* out) {
  assert(vs.stop_active && !vs.stop_buffer.empty());
  CriticalPoint cp;
  cp.mmsi = mmsi;
  cp.pos = vs.StopCentroid();
  cp.tau = end_tau;
  cp.flags = kStopEnd;
  cp.duration = end_tau - vs.stop_start_tau;
  Emit(cp, out);
  vs.stop_active = false;
  vs.stop_start_tau = kInvalidTimestamp;
  vs.ClearStop();
}

void MobilityTracker::CloseSlowMotion(VesselState& vs, stream::Mmsi mmsi,
                                      Timestamp end_tau,
                                      std::vector<CriticalPoint>* out) {
  assert(vs.slow_active && !vs.slow_buffer.empty());
  CriticalPoint cp;
  cp.mmsi = mmsi;
  cp.pos = BufferMedian(vs.slow_buffer);
  cp.tau = end_tau;
  cp.flags = kSlowMotionEnd;
  cp.duration = end_tau - vs.slow_start_tau;
  Emit(cp, out);
  vs.slow_active = false;
  vs.slow_start_tau = kInvalidTimestamp;
  vs.slow_buffer.clear();
}

bool MobilityTracker::UpdateStop(VesselState& vs,
                                 const stream::PositionTuple& t,
                                 double speed_knots,
                                 std::vector<CriticalPoint>* out) {
  const bool pause = speed_knots < params_.min_speed_knots;
  if (!pause) {
    if (vs.stop_active) {
      // The vessel resumed moving: the stop lasted until the previous sample.
      CloseStop(vs, t.mmsi, vs.last.tau, out);
    } else {
      vs.ClearStop();
    }
    return false;
  }
  // Pause sample: check spatial coherence with the current stop candidate.
  // The centroid comes from running sums, O(1) however long the stop.
  if (!vs.stop_buffer.empty()) {
    const geo::GeoPoint centroid = vs.StopCentroid();
    if (geo::HaversineMeters(t.pos, centroid) > params_.stop_radius_m) {
      // Drifted beyond r: the previous episode (if any) ends here.
      if (vs.stop_active) CloseStop(vs, t.mmsi, vs.last.tau, out);
      vs.ClearStop();
    }
  }
  vs.PushStop(t);
  if (!vs.stop_active &&
      vs.stop_buffer.size() >= static_cast<size_t>(params_.history_size)) {
    vs.stop_active = true;
    vs.stop_start_tau = vs.stop_buffer.front().tau;
    CriticalPoint cp;
    cp.mmsi = t.mmsi;
    cp.pos = vs.StopCentroid();
    cp.tau = vs.stop_start_tau;  // Retroactive: the stop began m samples ago.
    cp.flags = kStopStart;
    Emit(cp, out);
  }
  return true;  // Pause samples are absorbed; isolated they are meaningless.
}

void MobilityTracker::UpdateSlowMotion(VesselState& vs,
                                       const stream::PositionTuple& t,
                                       double speed_knots, bool in_stop,
                                       std::vector<CriticalPoint>* out) {
  const bool slow = !in_stop && speed_knots <= params_.slow_speed_knots;
  if (!slow) {
    if (vs.slow_active) {
      CloseSlowMotion(vs, t.mmsi, vs.last.tau, out);
    } else {
      vs.slow_buffer.clear();
    }
    return;
  }
  vs.slow_buffer.push_back(t);
  if (!vs.slow_active &&
      vs.slow_buffer.size() >= static_cast<size_t>(params_.history_size)) {
    vs.slow_active = true;
    vs.slow_start_tau = vs.slow_buffer.front().tau;
    CriticalPoint cp;
    cp.mmsi = t.mmsi;
    cp.pos = BufferMedian(vs.slow_buffer);
    cp.tau = vs.slow_start_tau;  // Retroactive, like stop starts.
    cp.flags = kSlowMotionStart;
    cp.speed_knots = speed_knots;
    Emit(cp, out);
    vs.slow_anchor = cp.pos;
  } else if (vs.slow_active &&
             geo::HaversineMeters(t.pos, vs.slow_anchor) >
                 params_.slow_waypoint_m) {
    // Shape waypoint: without it a meandering episode would collapse to the
    // straight start→end segment on reconstruction.
    CriticalPoint cp;
    cp.mmsi = t.mmsi;
    cp.pos = t.pos;
    cp.tau = t.tau;
    cp.flags = kSlowMotionWaypoint;
    cp.speed_knots = speed_knots;
    Emit(cp, out);
    vs.slow_anchor = t.pos;
  }
  // Keep only the last m positions: the closing median should represent the
  // end of the episode, and memory stays O(m) per vessel.
  if (vs.slow_buffer.size() > static_cast<size_t>(params_.history_size)) {
    vs.slow_buffer.erase(vs.slow_buffer.begin());
  }
}

void MobilityTracker::Process(const stream::PositionTuple& tuple,
                              std::vector<CriticalPoint>* out) {
  ++stats_.processed;
  VesselState& vs = StateOf(tuple.mmsi);

  if (!vs.has_last) {
    vs.has_last = true;
    vs.last = tuple;
    vs.last_trig = geo::LatTrig::Of(tuple.pos);
    ++vs.accepted_count;
    ++stats_.accepted;
    CriticalPoint cp;
    cp.mmsi = tuple.mmsi;
    cp.pos = tuple.pos;
    cp.tau = tuple.tau;
    cp.flags = kFirst;
    Emit(cp, out);
    return;
  }

  const Duration dt = tuple.tau - vs.last.tau;
  if (dt <= 0) {
    ++stats_.stale_discarded;
    return;
  }
  // The new fix's latitude trig is computed once here and kept for the next
  // tuple; the last fix's comes from the vessel state. One great-circle
  // distance serves the velocity and the odometer.
  const geo::LatTrig trig = geo::LatTrig::Of(tuple.pos);
  const double dist_m =
      geo::HaversineMeters(vs.last.pos, vs.last_trig, tuple.pos, trig);
  const auto accept = [&] {
    vs.odometer_m += dist_m;
    vs.last = tuple;
    vs.last_trig = trig;
    ++vs.accepted_count;
    ++stats_.accepted;
  };

  if (vs.gap_open) {
    // Gap already reported by AdvanceTo; this sample terminates it.
    CriticalPoint cp;
    cp.mmsi = tuple.mmsi;
    cp.pos = tuple.pos;
    cp.tau = tuple.tau;
    cp.flags = kGapEnd;
    cp.duration = tuple.tau - vs.gap_start_tau;
    Emit(cp, out);
    vs.gap_open = false;
    vs.gap_start_tau = kInvalidTimestamp;
    vs.ResetMotionState();
    accept();
    return;
  }

  if (dt > params_.gap_period) {
    // Gap discovered retrospectively (the vessel reported again before any
    // window slide noticed the silence).
    if (vs.stop_active) CloseStop(vs, tuple.mmsi, vs.last.tau, out);
    if (vs.slow_active) CloseSlowMotion(vs, tuple.mmsi, vs.last.tau, out);
    CriticalPoint start;
    start.mmsi = tuple.mmsi;
    start.pos = vs.last.pos;
    start.tau = vs.last.tau;
    start.flags = kGapStart;
    Emit(start, out);
    CriticalPoint end;
    end.mmsi = tuple.mmsi;
    end.pos = tuple.pos;
    end.tau = tuple.tau;
    end.flags = kGapEnd;
    end.duration = dt;
    Emit(end, out);
    vs.ResetMotionState();
    accept();
    return;
  }

  const geo::Velocity v_now =
      geo::VelocityBetween(vs.last.pos, vs.last_trig, vs.last.tau, tuple.pos,
                           trig, tuple.tau, dist_m);
  const VelocitySample now = VelocitySample::Of(v_now);

  if (IsOutlier(vs, now)) {
    ++stats_.outliers_discarded;
    ++vs.consecutive_outliers;
    if (vs.consecutive_outliers >= params_.outlier_reset_count) {
      // Persistent deviation: this is a genuine new course, not noise.
      ++stats_.outlier_resets;
      vs.ResetMotionState();
      accept();
    }
    return;
  }
  vs.consecutive_outliers = 0;

  // --- instantaneous events ---------------------------------------------
  const bool moving_now = v_now.speed_knots >= params_.min_speed_knots;
  const bool moving_prev =
      vs.has_velocity && vs.v_prev.speed_knots >= params_.min_speed_knots;

  bool speed_change = false;
  if (vs.has_velocity) {
    const double denom = std::max(v_now.speed_knots, kSpeedRatioFloorKnots);
    speed_change = std::fabs(v_now.speed_knots - vs.v_prev.speed_knots) /
                       denom >
                   params_.speed_change_ratio;
  }

  bool turn = false;
  double heading_diff = 0.0;
  if (vs.has_velocity && moving_now && moving_prev) {
    heading_diff =
        geo::BearingDifferenceDeg(vs.v_prev.heading_deg, v_now.heading_deg);
    turn = std::fabs(heading_diff) > params_.turn_threshold_deg;
  }

  // A transition from cruising into stillness: the previous sample is the
  // last point consistent with the old velocity, so it anchors the end of
  // the leg (otherwise the whole leg would be time-dilated when the
  // trajectory is reconstructed from critical points).
  const bool pause_now = v_now.speed_knots < params_.min_speed_knots;
  if (pause_now && moving_prev && speed_change) {
    CriticalPoint cp;
    cp.mmsi = tuple.mmsi;
    cp.pos = vs.last.pos;
    cp.tau = vs.last.tau;
    cp.flags = kSpeedChange;
    cp.speed_knots = vs.v_prev.speed_knots;
    cp.heading_deg = vs.v_prev.heading_deg;
    Emit(cp, out);
  }

  // --- long-lasting events -------------------------------------------------
  const bool in_stop = UpdateStop(vs, tuple, v_now.speed_knots, out);
  UpdateSlowMotion(vs, tuple, v_now.speed_knots, in_stop, out);

  const size_t history = static_cast<size_t>(params_.history_size);
  bool smooth_turn = false;
  if (vs.has_velocity && moving_now && moving_prev) {
    if (turn) {
      // A sharp turn resets the cumulative-heading accumulator: the course
      // change is already captured by the instantaneous event.
      vs.heading_diffs.clear();
    } else {
      vs.heading_diffs.Push(heading_diff, history);
      double cumulative = 0.0;
      for (size_t i = 0; i < vs.heading_diffs.size(); ++i) {
        cumulative += vs.heading_diffs[i];
      }
      if (std::fabs(cumulative) > params_.turn_threshold_deg) {
        smooth_turn = true;
        vs.heading_diffs.clear();
      }
    }
  } else {
    vs.heading_diffs.clear();
  }

  // --- emission ------------------------------------------------------------
  // During a slow-motion episode, per-sample chatter (relative speed
  // fluctuations, heading jitter of a trawler working a ground) is absorbed
  // by the episode; the episode's shape is retained by distance-triggered
  // waypoints emitted from UpdateSlowMotion instead.
  uint32_t flags = 0;
  if (!vs.slow_active) {
    if (turn) flags |= kTurn;
    if (smooth_turn) flags |= kSmoothTurn;
    if (speed_change) flags |= kSpeedChange;
  }
  if (flags != 0 && !in_stop) {
    CriticalPoint cp;
    cp.mmsi = tuple.mmsi;
    cp.flags = flags;
    if (flags & (kTurn | kSpeedChange)) {
      // The velocity changed somewhere between the previous sample and this
      // one, so the previous sample is the corner of the trajectory (the
      // last point consistent with the old velocity). Anchoring the critical
      // point there keeps the reconstructed polyline tight around sharp
      // turns — anchoring at the detection sample would cut the corner by a
      // whole reporting interval.
      cp.pos = vs.last.pos;
      cp.tau = vs.last.tau;
      cp.speed_knots = vs.v_prev.speed_knots;
      cp.heading_deg = vs.v_prev.heading_deg;
    } else {
      // A smooth turn's representative point is the latest of the series
      // (paper Section 3.1).
      cp.pos = tuple.pos;
      cp.tau = tuple.tau;
      cp.speed_knots = v_now.speed_knots;
      cp.heading_deg = v_now.heading_deg;
    }
    Emit(cp, out);
  }

  // --- state update ----------------------------------------------------------
  vs.recent_velocities.Push(now, history);
  vs.v_prev = v_now;
  vs.has_velocity = true;
  accept();
}

void MobilityTracker::ProcessBatch(
    const std::vector<stream::PositionTuple>& batch,
    std::vector<CriticalPoint>* out) {
  for (const auto& t : batch) Process(t, out);
}

void MobilityTracker::AdvanceTo(Timestamp now,
                                std::vector<CriticalPoint>* out) {
  for (size_t i = 0; i < vessels_.size(); ++i) {
    VesselState& vs = vessels_[i];
    const stream::Mmsi mmsi = mmsis_[i];
    if (!vs.has_last || vs.gap_open) continue;
    if (now - vs.last.tau <= params_.gap_period) continue;
    // The vessel fell silent: finalize open episodes, report the gap start
    // at the last known position (paper Section 3.1, Figure 3(a)).
    if (vs.stop_active) CloseStop(vs, mmsi, vs.last.tau, out);
    if (vs.slow_active) CloseSlowMotion(vs, mmsi, vs.last.tau, out);
    CriticalPoint cp;
    cp.mmsi = mmsi;
    cp.pos = vs.last.pos;
    cp.tau = vs.last.tau;
    cp.flags = kGapStart;
    Emit(cp, out);
    vs.gap_open = true;
    vs.gap_start_tau = vs.last.tau;
  }
}

void MobilityTracker::Finish(std::vector<CriticalPoint>* out) {
  for (size_t i = 0; i < vessels_.size(); ++i) {
    VesselState& vs = vessels_[i];
    const stream::Mmsi mmsi = mmsis_[i];
    if (vs.stop_active) CloseStop(vs, mmsi, vs.last.tau, out);
    if (vs.slow_active) CloseSlowMotion(vs, mmsi, vs.last.tau, out);
    if (vs.has_last) {
      // Closing anchor so that approximate reconstruction covers the whole
      // observed trace.
      CriticalPoint cp;
      cp.mmsi = mmsi;
      cp.pos = vs.last.pos;
      cp.tau = vs.last.tau;
      cp.flags = kLast;
      if (vs.has_velocity) {
        cp.speed_knots = vs.v_prev.speed_knots;
        cp.heading_deg = vs.v_prev.heading_deg;
      }
      Emit(cp, out);
    }
  }
}

}  // namespace maritime::tracker
