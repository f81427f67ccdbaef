#ifndef MARITIME_GEO_VELOCITY_H_
#define MARITIME_GEO_VELOCITY_H_

#include "common/time.h"
#include "geo/geo_point.h"

namespace maritime::geo {

/// An instantaneous velocity vector: speed over ground plus heading. The
/// mobility tracker maintains one such vector per vessel, computed from its
/// two most recent positions (paper Section 3.1).
struct Velocity {
  double speed_knots = 0.0;   ///< Magnitude, in knots (>= 0).
  double heading_deg = 0.0;   ///< Direction, degrees clockwise from north.

  /// Eastward component in m/s.
  double east_mps() const {
    return speed_knots * kKnotsToMps * std::sin(DegToRad(heading_deg));
  }
  /// Northward component in m/s.
  double north_mps() const {
    return speed_knots * kKnotsToMps * std::cos(DegToRad(heading_deg));
  }

  /// Builds a velocity from east/north components in m/s.
  static Velocity FromComponents(double east_mps, double north_mps);
};

/// Velocity derived from two timestamped positions via linear interpolation
/// (paper footnote 2). Precondition: t_b > t_a.
Velocity VelocityBetween(const GeoPoint& a, Timestamp t_a, const GeoPoint& b,
                         Timestamp t_b);

/// As above, given ta = LatTrig::Of(a), tb = LatTrig::Of(b) and
/// dist_m = HaversineMeters(a, b), for callers that keep those (the
/// tracker needs the distance for its odometer too). Bit-identical.
Velocity VelocityBetween(const GeoPoint& a, const LatTrig& ta, Timestamp t_a,
                         const GeoPoint& b, const LatTrig& tb, Timestamp t_b,
                         double dist_m);

/// Mean velocity vector over a sequence of component velocities (vector
/// average, so opposing headings cancel — this is the v_m the paper uses to
/// spot off-course outliers).
Velocity MeanVelocity(const Velocity* v, size_t n);

/// MeanVelocity given the sums of the n velocities' east_mps() and
/// north_mps(), accumulated from 0.0 in index order (for callers that keep
/// the components; MeanVelocity is this over freshly computed ones).
Velocity MeanVelocityFromSums(double east_sum, double north_sum, size_t n);

/// Euclidean norm of the vector difference between two velocities, in knots.
/// Captures "abrupt change in velocity (both in speed and heading)".
double VelocityDeviationKnots(const Velocity& a, const Velocity& b);

/// VelocityDeviationKnots(a, b) given a.east_mps() and a.north_mps().
double VelocityDeviationKnots(double a_east_mps, double a_north_mps,
                              const Velocity& b);

}  // namespace maritime::geo

#endif  // MARITIME_GEO_VELOCITY_H_
