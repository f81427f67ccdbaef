// Collision watch: the low-latency screening the paper motivates as a
// beneficiary of online trajectory compression ("reducing latency of online
// collision detection", Section 1) plus the "is a ship approaching a port"
// continuous query of Section 2.
//
// Two scripted ferries converge head-on in open water while background
// traffic sails around them; the pipeline compresses the streams into
// critical points, a LiveVesselIndex tracks the fleet's latest kinematic
// state from those critical points alone, and each window slide runs a
// closest-point-of-approach screen plus port-approach queries.

#include <cstdio>
#include <set>

#include "maritime/live_index.h"
#include "maritime/pipeline.h"
#include "sim/generator.h"
#include "sim/scenarios.h"
#include "sim/world.h"
#include "stream/replayer.h"

int main() {
  using namespace maritime;

  sim::World world = sim::BuildWorld(/*seed=*/55);

  // Background traffic.
  sim::FleetConfig fleet_cfg;
  fleet_cfg.vessels = 15;
  fleet_cfg.duration = 4 * kHour;
  fleet_cfg.seed = 56;
  sim::FleetSimulator fleet(&world, fleet_cfg);
  auto tuples = fleet.Generate();

  // Two ferries on reciprocal courses, timed to meet in the middle.
  const geo::GeoPoint meet{25.0, 38.0};
  const double leg_m = 30000.0;
  const Duration leg_s =
      static_cast<Duration>(leg_m / (14.0 * geo::kKnotsToMps));
  for (int i = 0; i < 2; ++i) {
    surveillance::VesselInfo info;
    info.mmsi = 238000001u + static_cast<stream::Mmsi>(i);
    info.name = i == 0 ? "MF EASTBOUND" : "MF WESTBOUND";
    info.type = surveillance::VesselType::kPassenger;
    info.draft_m = 5.5;
    world.knowledge.AddVessel(info);
    const double bearing = i == 0 ? 90.0 : 270.0;
    sim::TraceBuilder t(info.mmsi,
                        geo::DestinationPoint(meet, bearing + 180.0, leg_m),
                        kHour);
    t.Cruise(bearing, 14.0, 2 * leg_s, 30);
    auto trace = std::move(t).Build();
    tuples.insert(tuples.end(), trace.begin(), trace.end());
  }
  stream::StreamReplayer replayer(std::move(tuples));
  std::printf("fleet of %zu vessels; ferries converge head-on near "
              "(%.2f, %.2f) around t=%s\n",
              fleet.fleet().size() + 2, meet.lon, meet.lat,
              FormatTimestamp(kHour + leg_s).c_str());

  surveillance::PipelineConfig config;
  config.window = stream::WindowSpec{kHour, 5 * kMinute};
  config.archive = false;
  surveillance::SurveillancePipeline pipeline(&world.knowledge, config);

  surveillance::LiveVesselIndex live;
  std::set<std::pair<stream::Mmsi, stream::Mmsi>> reported;
  size_t alerts = 0;
  stream::QueryTimeSequence queries(config.window, 0);
  const Timestamp last_tau = replayer.last_timestamp();
  while (true) {
    const Timestamp q = queries.Fire();
    const auto batch = replayer.NextBatch(q);
    // The live picture tracks every raw fix (cheap: last state per vessel);
    // the pipeline's critical points additionally mark transponder gaps so
    // dark vessels are excluded from extrapolation.
    for (const auto& fix : batch) live.Update(fix);
    const auto report = pipeline.RunSlide(q, batch);
    for (const auto& cp : report.criticals) {
      if (cp.Has(tracker::kGapStart)) live.Update(cp);
    }
    live.EvictSilentSince(q - 2 * kHour);

    for (const auto& e : live.CollisionScreen(/*cpa_threshold_m=*/800.0,
                                              /*horizon_s=*/30 * kMinute)) {
      if (!reported.insert({e.a, e.b}).second) continue;
      ++alerts;
      std::printf(
          "  [Q=%s] CPA WARNING vessels %u / %u: now %.1f km apart, "
          "CPA %.0f m in %s\n",
          FormatTimestamp(report.query_time).c_str(), e.a, e.b,
          e.current_distance_m / 1000.0, e.cpa_distance_m,
          FormatDuration(e.time_to_cpa).c_str());
    }
    if (q >= last_tau) break;
  }
  pipeline.Finish();

  // Port-approach query against the final picture.
  std::printf("\nport approach snapshot (last window):\n");
  for (const auto& port : world.ports) {
    const auto approaching = live.Approaching(port.center, 15000.0);
    for (const auto* v : approaching) {
      std::printf("  %s: vessel %u inbound at %.1f kn, %.1f km out\n",
                  port.name.c_str(), v->mmsi, v->speed_knots,
                  geo::HaversineMeters(v->pos, port.center) / 1000.0);
    }
  }
  std::printf("\nCPA warnings raised: %zu (ferry pair %s)\n", alerts,
              reported.count({238000001u, 238000002u}) ? "flagged" :
              "NOT flagged");
  return reported.count({238000001u, 238000002u}) ? 0 : 2;
}
