#include "maritime/me_stream.h"

#include <algorithm>

namespace maritime::surveillance {

MaritimeSchema MaritimeSchema::Declare(rtec::Engine& engine) {
  MaritimeSchema s;
  s.gap = engine.DeclareEvent("gap");
  s.gap_end = engine.DeclareEvent("gapEnd");
  s.turn = engine.DeclareEvent("turn");
  s.speed_change = engine.DeclareEvent("speedChange");
  s.slow_motion = engine.DeclareEvent("slowMotion");
  s.stop_start = engine.DeclareEvent("stopStart");
  s.stop_end = engine.DeclareEvent("stopEnd");
  s.slow_start = engine.DeclareEvent("slowStart");
  s.slow_end = engine.DeclareEvent("slowEnd");
  s.close_fact = engine.DeclareEvent("close");
  s.stopped = engine.DeclareFluent("stopped");
  s.low_speed = engine.DeclareFluent("lowSpeed");
  s.suspicious = engine.DeclareFluent("suspicious");
  s.illegal_fishing = engine.DeclareFluent("illegalFishing");
  s.illegal_shipping = engine.DeclareEvent("illegalShipping");
  s.dangerous_shipping = engine.DeclareEvent("dangerousShipping");
  s.adrift = engine.DeclareFluent("adrift");
  return s;
}

void FeedCriticalPoint(rtec::Engine& engine, const MaritimeSchema& schema,
                       const tracker::CriticalPoint& cp) {
  const rtec::Term vessel = VesselTerm(cp.mmsi);
  engine.AssertCoord(vessel, cp.tau, cp.pos);
  const auto assert_event = [&](rtec::EventId e) {
    engine.AssertEvent(e, vessel, cp.tau);
  };
  if (cp.Has(tracker::kGapStart)) assert_event(schema.gap);
  if (cp.Has(tracker::kGapEnd)) assert_event(schema.gap_end);
  if (cp.Has(tracker::kTurn) || cp.Has(tracker::kSmoothTurn)) {
    assert_event(schema.turn);
  }
  if (cp.Has(tracker::kSpeedChange)) assert_event(schema.speed_change);
  if (cp.Has(tracker::kStopStart)) assert_event(schema.stop_start);
  if (cp.Has(tracker::kStopEnd)) assert_event(schema.stop_end);
  if (cp.Has(tracker::kSlowMotionStart)) {
    assert_event(schema.slow_start);
    // The instantaneous slowMotion ME of rules (4) and (6) fires once per
    // episode, at its detection.
    assert_event(schema.slow_motion);
  }
  if (cp.Has(tracker::kSlowMotionEnd)) assert_event(schema.slow_end);
}

void SpatialFactTable::AddFactGroup(stream::Mmsi mmsi, Timestamp t,
                                    std::vector<int32_t> areas) {
  std::sort(areas.begin(), areas.end());
  fact_count_ += areas.size();
  auto& vec = groups_[mmsi];
  Group g{t, std::move(areas)};
  if (!vec.empty() && vec.back().t > t) {
    // Delayed fact group: keep per-vessel order.
    const auto pos = std::partition_point(
        vec.begin(), vec.end(),
        [t](const Group& existing) { return existing.t <= t; });
    vec.insert(pos, std::move(g));
  } else {
    vec.push_back(std::move(g));
  }
}

std::vector<int32_t> SpatialFactTable::AreasCloseAt(stream::Mmsi mmsi,
                                                    Timestamp t) const {
  const auto it = groups_.find(mmsi);
  if (it == groups_.end()) return {};
  const auto& vec = it->second;
  const auto pos = std::partition_point(
      vec.begin(), vec.end(), [t](const Group& g) { return g.t <= t; });
  if (pos == vec.begin()) return {};
  return (pos - 1)->areas;
}

bool SpatialFactTable::IsCloseAt(stream::Mmsi mmsi, int32_t area,
                                 Timestamp t) const {
  const auto it = groups_.find(mmsi);
  if (it == groups_.end()) return false;
  const auto& vec = it->second;
  const auto pos = std::partition_point(
      vec.begin(), vec.end(), [t](const Group& g) { return g.t <= t; });
  if (pos == vec.begin()) return false;
  const auto& areas = (pos - 1)->areas;
  return std::binary_search(areas.begin(), areas.end(), area);
}

bool SpatialFactTable::ConstantCloseOver(stream::Mmsi mmsi, int32_t area,
                                         Timestamp from, Timestamp upto,
                                         bool* close) const {
  // Beyond this many in-force groups, classification costs more than the
  // caller's exact per-time fallback would.
  constexpr int kMaxGroups = 8;
  *close = false;
  const auto it = groups_.find(mmsi);
  if (it == groups_.end()) return true;
  const auto& vec = it->second;
  auto pos = std::partition_point(
      vec.begin(), vec.end(), [from](const Group& g) { return g.t <= from; });
  bool have = false;
  bool val = false;
  if (pos == vec.begin()) {
    // No group in force at `from`: IsCloseAt answers false until the first
    // group takes effect.
    have = true;
  } else {
    --pos;
  }
  int scanned = 0;
  for (; pos != vec.end() && pos->t <= upto; ++pos) {
    if (++scanned > kMaxGroups) return false;
    const bool c =
        std::binary_search(pos->areas.begin(), pos->areas.end(), area);
    if (!have) {
      have = true;
      val = c;
    } else if (c != val) {
      return false;
    }
  }
  *close = have && val;
  return true;
}

void SpatialFactTable::AreasCoveringFrom(stream::Mmsi mmsi, Timestamp from,
                                         std::vector<int32_t>* out) const {
  out->clear();
  const auto it = groups_.find(mmsi);
  if (it == groups_.end()) return;
  const auto& vec = it->second;
  // First group after `from`, stepped back once to include the group in
  // force throughout [from, next group): the same boundary-inclusive walk
  // as the engine's coord covering.
  auto pos = std::partition_point(
      vec.begin(), vec.end(), [from](const Group& g) { return g.t <= from; });
  if (pos != vec.begin()) --pos;
  for (; pos != vec.end(); ++pos) {
    out->insert(out->end(), pos->areas.begin(), pos->areas.end());
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

void SpatialFactTable::PurgeBefore(Timestamp cutoff) {
  // Retain the latest group at or before the cutoff as the vessel's boundary
  // fact group, mirroring the engine's last-known-position inertia for
  // coords: older groups are shadowed by it for every query at t > cutoff,
  // so purging never changes AreasCloseAt/IsCloseAt answers inside the
  // window (which keeps incremental caches valid across slides).
  for (auto& [mmsi, vec] : groups_) {
    const auto pos = std::partition_point(
        vec.begin(), vec.end(),
        [cutoff](const Group& g) { return g.t <= cutoff; });
    if (pos - vec.begin() <= 1) continue;
    for (auto g = vec.begin(); g != pos - 1; ++g) {
      fact_count_ -= g->areas.size();
    }
    vec.erase(vec.begin(), pos - 1);
  }
}

}  // namespace maritime::surveillance
