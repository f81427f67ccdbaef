#ifndef MARITIME_MARITIME_ME_STREAM_H_
#define MARITIME_MARITIME_ME_STREAM_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/strings.h"
#include "common/time.h"
#include "rtec/engine.h"
#include "stream/position.h"
#include "tracker/critical_point.h"

namespace maritime::surveillance {

/// Term kinds used by the maritime CE definitions.
inline constexpr int32_t kVesselTermKind = 0;
inline constexpr int32_t kAreaTermKind = 1;

inline rtec::Term VesselTerm(stream::Mmsi mmsi) {
  return rtec::Term{kVesselTermKind, static_cast<int32_t>(mmsi)};
}
inline rtec::Term AreaTerm(int32_t area_id) {
  return rtec::Term{kAreaTermKind, area_id};
}

/// Log-friendly label for a ground term ("area=3", "vessel=205").
inline std::string TermLabel(rtec::Term t) {
  if (t.kind == kVesselTermKind) return StrPrintf("vessel=%d", t.id);
  if (t.kind == kAreaTermKind) return StrPrintf("area=%d", t.id);
  return StrPrintf("term=%d:%d", t.kind, t.id);
}

/// The event/fluent vocabulary of the maritime CE library: the critical
/// movement events (MEs) produced by the trajectory detection component —
/// gap, turn, speedChange, slowMotion, plus the marker events bounding the
/// durative MEs stopped and lowSpeed — and the CEs of paper Section 4.
struct MaritimeSchema {
  // Input MEs (instantaneous).
  rtec::EventId gap = -1;           ///< Communication gap started.
  rtec::EventId gap_end = -1;       ///< Vessel reporting again.
  rtec::EventId turn = -1;          ///< Sharp or smooth turn.
  rtec::EventId speed_change = -1;  ///< Speed deviated by more than α.
  rtec::EventId slow_motion = -1;   ///< Vessel moving "too" slowly.
  // Marker events bounding the durative input MEs.
  rtec::EventId stop_start = -1;
  rtec::EventId stop_end = -1;
  rtec::EventId slow_start = -1;
  rtec::EventId slow_end = -1;
  /// Spatial fact: subject vessel is close to object area (Figure 11(b)
  /// mode, where spatial relations arrive precomputed in the input stream).
  rtec::EventId close_fact = -1;

  // Input durative MEs, represented as fluents.
  rtec::FluentId stopped = -1;    ///< stopped(Vessel)=true intervals.
  rtec::FluentId low_speed = -1;  ///< lowSpeed(Vessel)=true intervals.

  // Output CEs.
  rtec::FluentId suspicious = -1;       ///< suspicious(Area), rule-set (3).
  rtec::FluentId illegal_fishing = -1;  ///< illegalFishing(Area), rule-set (4).
  rtec::EventId illegal_shipping = -1;  ///< illegalShipping(Area), rule (5).
  rtec::EventId dangerous_shipping = -1;  ///< dangerousShipping(Area), (6).
  /// Extension beyond the paper's four CEs: adrift(Vessel) holds while a
  /// vessel is stopped in open water, away from every port — the signature
  /// of a disabled ship (or one engaged in a transfer at sea). The rule is
  /// definable in exactly the paper's formalism:
  ///   initiatedAt(adrift(V)=true, T)  <- happensAt(start(stopped(V)=true), T),
  ///                                      holdsAt(coord(V)=(Lon,Lat), T),
  ///                                      not close(Lon, Lat, any port)
  ///   terminatedAt(adrift(V)=true, T) <- happensAt(end(stopped(V)=true), T)
  rtec::FluentId adrift = -1;

  /// Declares every event and fluent on `engine`.
  static MaritimeSchema Declare(rtec::Engine& engine);
};

/// Converts one critical point into ME assertions on `engine`: the vessel
/// coordinates always (the coord fluent), one event per relevant annotation
/// flag.
void FeedCriticalPoint(rtec::Engine& engine, const MaritimeSchema& schema,
                       const tracker::CriticalPoint& cp);

/// Side table of precomputed spatial facts for the Figure 11(b) setting.
/// Each ME of a vessel is accompanied by facts naming the areas the vessel
/// is close to at the ME's timestamp; between MEs the latest fact group
/// stays in force.
class SpatialFactTable {
 public:
  /// Registers an ME of `mmsi` at `t` being close to exactly `areas`.
  void AddFactGroup(stream::Mmsi mmsi, Timestamp t,
                    std::vector<int32_t> areas);

  /// Areas the vessel was close to according to its latest fact group at or
  /// before `t` (empty when the vessel has never reported).
  std::vector<int32_t> AreasCloseAt(stream::Mmsi mmsi, Timestamp t) const;

  /// True iff `area` is among AreasCloseAt(mmsi, t).
  bool IsCloseAt(stream::Mmsi mmsi, int32_t area, Timestamp t) const;

  /// Classifies the vessel's closeness to `area` as observed by IsCloseAt
  /// over (from, upto]: returns true and sets *close when the answer is the
  /// same at every such time (one fact group in force throughout, or every
  /// in-force group agreeing on the area — including the implicit "never
  /// close" before a vessel's first group). Returns false when the answer
  /// varies, or when the vessel has too many in-force groups to scan
  /// cheaply; callers then fall back to exact per-time lookups.
  bool ConstantCloseOver(stream::Mmsi mmsi, int32_t area, Timestamp from,
                         Timestamp upto, bool* close) const;

  /// Fills `out` (cleared first; sorted, unique) with the union of the
  /// vessel's areas over every fact group in force at some time >= `from`:
  /// the latest group at or before `from` plus all later groups. Because
  /// groups are append-only between purges and purges retain the boundary
  /// group, this union covers both the pre-change and post-change closeness
  /// of the vessel on [from, +inf) — the conservative vessel→area projection
  /// the engine's dependency-scoped dirty propagation needs (DESIGN.md §14).
  void AreasCoveringFrom(stream::Mmsi mmsi, Timestamp from,
                         std::vector<int32_t>* out) const;

  /// Drops fact groups older than the vessel's latest group at or before
  /// `cutoff` (window management with last-known-state inertia; answers for
  /// t > cutoff are unaffected).
  void PurgeBefore(Timestamp cutoff);

  size_t fact_count() const { return fact_count_; }

  // --- checkpointing -------------------------------------------------------
  /// Serializes every fact group (format v1). groups_ is an ordered map, so
  /// identical state yields identical bytes.
  void SaveTo(snapshot::Writer& w) const;
  /// Restores a saved table, replacing the current contents. On error the
  /// table is left empty, never half-filled.
  Status RestoreFrom(snapshot::Reader& r);

 private:
  struct Group {
    Timestamp t;
    std::vector<int32_t> areas;
  };
  std::map<stream::Mmsi, std::vector<Group>> groups_;
  size_t fact_count_ = 0;
};

}  // namespace maritime::surveillance

#endif  // MARITIME_MARITIME_ME_STREAM_H_
