#ifndef MARITIME_TRACKER_VESSEL_STATE_H_
#define MARITIME_TRACKER_VESSEL_STATE_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/status.h"
#include "geo/velocity.h"
#include "snapshot/codec.h"
#include "stream/position.h"

namespace maritime::tracker {

/// Bounded history of a vessel's last m samples: a ring whose storage grows
/// geometrically up to `limit` (= history_size) entries and is then reused
/// for the vessel's lifetime. Push() is exactly a deque push_back followed by
/// one pop_front when the size exceeds `limit` — including for a ring
/// restored from a snapshot with more entries than `limit`, which keeps its
/// size. Index 0 is the oldest entry.
template <typename T>
class HistoryRing {
 public:
  size_t size() const { return size_; }

  const T& operator[](size_t i) const { return buf_[Slot(i)]; }

  void Push(const T& v, size_t limit) {
    if (size_ >= limit) {
      if (size_ == 0) return;  // limit 0: the new entry is dropped at once
      // Drop the oldest entry, then append into its slot.
      head_ = head_ + 1 == buf_.size() ? 0 : head_ + 1;
      buf_[Slot(size_ - 1)] = v;
      return;
    }
    if (size_ == buf_.size()) {
      Grow(std::min(limit, std::max<size_t>(16, 2 * buf_.size())));
    }
    buf_[Slot(size_)] = v;
    ++size_;
  }

  /// Drops every entry; the storage is kept.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  size_t Slot(size_t i) const {
    const size_t j = head_ + i;
    return j >= buf_.size() ? j - buf_.size() : j;
  }
  void Grow(size_t capacity) {
    std::vector<T> grown(capacity);
    for (size_t i = 0; i < size_; ++i) grown[i] = (*this)[i];
    buf_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> buf_;
  size_t head_ = 0;
  size_t size_ = 0;
};

/// One entry of the velocity history: the velocity as computed from two
/// positions, plus its east/north components in m/s, evaluated once when
/// the entry is pushed (`v.east_mps()`, `v.north_mps()`). The mean velocity
/// sums these cached components instead of re-deriving them with sin/cos
/// for every entry on every tuple.
struct VelocitySample {
  geo::Velocity v;
  double east_mps = 0.0;
  double north_mps = 0.0;

  static VelocitySample Of(const geo::Velocity& v) {
    return VelocitySample{v, v.east_mps(), v.north_mps()};
  }
};

/// Per-vessel in-memory movement state maintained by the mobility tracker.
/// The tracker works "entirely in main memory and without any index support"
/// (paper Section 2); each vessel's state is O(m) in the number of inspected
/// recent positions.
struct VesselState {
  // --- latest accepted sample -------------------------------------------
  bool has_last = false;
  stream::PositionTuple last;
  /// geo::LatTrig::Of(last.pos), so distances and bearings from the last fix
  /// reuse its latitude trig. Derived: not serialized, rebuilt on restore.
  geo::LatTrig last_trig;

  // --- instantaneous velocity -------------------------------------------
  bool has_velocity = false;
  geo::Velocity v_prev;  ///< Velocity implied by the two latest positions.

  /// Ring of the last m component velocities (for the mean velocity v_m used
  /// in off-course detection).
  HistoryRing<VelocitySample> recent_velocities;

  /// Ring of the last m signed heading changes (for smooth-turn detection).
  HistoryRing<double> heading_diffs;

  // --- long-term stop tracking ------------------------------------------
  /// Consecutive pause samples, candidates for / members of a stop episode.
  /// Modify only through PushStop/ClearStop, which keep the sums below.
  std::vector<stream::PositionTuple> stop_buffer;
  /// Running sums of stop_buffer's longitudes and latitudes, accumulated
  /// from 0.0 in buffer order — the same additions, in the same order, as a
  /// loop over the buffer, so StopCentroid() is bit-identical to it. Derived
  /// state: not serialized, rebuilt by RestoreFrom.
  double stop_lon_sum = 0.0;
  double stop_lat_sum = 0.0;
  bool stop_active = false;
  Timestamp stop_start_tau = kInvalidTimestamp;

  // --- slow-motion tracking ---------------------------------------------
  std::vector<stream::PositionTuple> slow_buffer;
  bool slow_active = false;
  Timestamp slow_start_tau = kInvalidTimestamp;
  /// Last emitted shape waypoint of the active slow-motion episode.
  geo::GeoPoint slow_anchor;

  // --- communication-gap tracking ---------------------------------------
  bool gap_open = false;
  Timestamp gap_start_tau = kInvalidTimestamp;

  // --- outlier tracking ---------------------------------------------------
  int consecutive_outliers = 0;

  uint64_t accepted_count = 0;

  /// Cumulative traveled distance since the first accepted position (a
  /// feature the paper lists as future work in Section 3.1). Distance over
  /// silent periods is counted as the straight line between the bracketing
  /// reports, so the value is a lower bound while gaps occur.
  double odometer_m = 0.0;

  /// Drops velocity history and open episodes (used after gaps and outlier
  /// resets, when the recent course is no longer trustworthy). Keeps `last`.
  void ResetMotionState();

  void PushStop(const stream::PositionTuple& t) {
    stop_buffer.push_back(t);
    stop_lon_sum += t.pos.lon;
    stop_lat_sum += t.pos.lat;
  }
  void ClearStop() {
    stop_buffer.clear();
    stop_lon_sum = 0.0;
    stop_lat_sum = 0.0;
  }
  /// Mean position of stop_buffer. Precondition: the buffer is non-empty.
  geo::GeoPoint StopCentroid() const {
    const double n = static_cast<double>(stop_buffer.size());
    return geo::GeoPoint{stop_lon_sum / n, stop_lat_sum / n};
  }

  // --- checkpointing ------------------------------------------------------
  /// Serializes every field (format v1, framed by the owning tracker).
  void SaveTo(snapshot::Writer& w) const;
  /// Overwrites this state from `r` and rebuilds the derived caches (ring
  /// components, stop sums). Corruption on malformed input; the state is
  /// unspecified after an error (the owning tracker discards it).
  Status RestoreFrom(snapshot::Reader& r);
};

}  // namespace maritime::tracker

#endif  // MARITIME_TRACKER_VESSEL_STATE_H_
