#include "geo/velocity.h"

#include <cassert>
#include <cmath>

namespace maritime::geo {

Velocity Velocity::FromComponents(double east_mps, double north_mps) {
  Velocity v;
  const double mps = std::hypot(east_mps, north_mps);
  v.speed_knots = mps * kMpsToKnots;
  v.heading_deg =
      mps > 0.0 ? NormalizeBearingDeg(RadToDeg(std::atan2(east_mps, north_mps)))
                : 0.0;
  return v;
}

Velocity VelocityBetween(const GeoPoint& a, Timestamp t_a, const GeoPoint& b,
                         Timestamp t_b) {
  const LatTrig ta = LatTrig::Of(a);
  const LatTrig tb = LatTrig::Of(b);
  return VelocityBetween(a, ta, t_a, b, tb, t_b, HaversineMeters(a, ta, b, tb));
}

Velocity VelocityBetween(const GeoPoint& a, const LatTrig& ta, Timestamp t_a,
                         const GeoPoint& b, const LatTrig& tb, Timestamp t_b,
                         double dist_m) {
  assert(t_b > t_a);
  const double dt_s = static_cast<double>(t_b - t_a);
  Velocity v;
  v.speed_knots = (dist_m / dt_s) * kMpsToKnots;
  v.heading_deg = dist_m > 0.0 ? InitialBearingDeg(a, ta, b, tb) : 0.0;
  return v;
}

Velocity MeanVelocity(const Velocity* v, size_t n) {
  double east = 0.0, north = 0.0;
  for (size_t i = 0; i < n; ++i) {
    east += v[i].east_mps();
    north += v[i].north_mps();
  }
  return MeanVelocityFromSums(east, north, n);
}

Velocity MeanVelocityFromSums(double east_sum, double north_sum, size_t n) {
  assert(n > 0);
  return Velocity::FromComponents(east_sum / static_cast<double>(n),
                                  north_sum / static_cast<double>(n));
}

double VelocityDeviationKnots(const Velocity& a, const Velocity& b) {
  return VelocityDeviationKnots(a.east_mps(), a.north_mps(), b);
}

double VelocityDeviationKnots(double a_east_mps, double a_north_mps,
                              const Velocity& b) {
  const double de = a_east_mps - b.east_mps();
  const double dn = a_north_mps - b.north_mps();
  return std::hypot(de, dn) * kMpsToKnots;
}

}  // namespace maritime::geo
