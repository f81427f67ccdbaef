#ifndef MARITIME_BENCH_BENCH_COMMON_H_
#define MARITIME_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/generator.h"
#include "sim/world.h"
#include "stream/position.h"

namespace maritime::bench {

/// Fleet/duration scale factor, from MARITIME_BENCH_SCALE (default 1).
/// The default scale keeps every bench binary minutes-fast on a laptop;
/// scale >= 10 approaches the paper's 6425-vessel setting.
inline double Scale() {
  const char* env = std::getenv("MARITIME_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double s = std::atof(env);
  return s > 0.0 ? s : 1.0;
}

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The p-quantile (0 <= p <= 1) of non-empty `samples`, interpolated
/// linearly between order statistics.
inline double Quantile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  const double pos = p * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) *
                           (samples[hi] - samples[lo]);
}

/// Interquartile range of non-empty `samples`: the spread that repeated
/// runs report next to their median.
inline double Iqr(const std::vector<double>& samples) {
  return Quantile(samples, 0.75) - Quantile(samples, 0.25);
}

struct BenchStream {
  sim::World world;
  std::vector<stream::PositionTuple> tuples;
  sim::GroundTruth truth;
  std::vector<sim::SimVessel> fleet;
};

/// Deterministic synthetic workload shared by the bench binaries: a
/// full-feature fleet (ferries, traders, trawlers, intruders, loiterers)
/// over the default 35-area world.
inline BenchStream MakeBenchStream(int base_vessels, Duration duration,
                                   uint64_t seed = 1234) {
  BenchStream out{sim::BuildWorld(seed), {}, {}, {}};
  sim::FleetConfig cfg;
  cfg.vessels = static_cast<int>(base_vessels * Scale());
  cfg.duration = duration;
  cfg.seed = seed + 1;
  sim::FleetSimulator fleet(&out.world, cfg);
  out.tuples = fleet.Generate();
  out.truth = fleet.ground_truth();
  out.fleet = fleet.fleet();
  return out;
}

/// Clones every vessel `factor` times with distinct MMSIs, multiplying the
/// stream arrival rate without distorting per-vessel kinematics (used by the
/// Figure 7 stress test). Registers the clones in the world's knowledge
/// base.
inline std::vector<stream::PositionTuple> AmplifyStream(
    const std::vector<stream::PositionTuple>& base, int factor,
    sim::World* world) {
  std::vector<stream::PositionTuple> out;
  out.reserve(base.size() * static_cast<size_t>(factor));
  for (int k = 0; k < factor; ++k) {
    const stream::Mmsi offset = 10000000u * static_cast<stream::Mmsi>(k);
    for (const auto& t : base) {
      out.push_back(
          stream::PositionTuple{t.mmsi + offset, t.pos, t.tau});
    }
  }
  std::stable_sort(out.begin(), out.end(), stream::StreamOrder);
  if (world != nullptr && factor > 1) {
    std::vector<surveillance::VesselInfo> originals;
    // Snapshot before inserting clones.
    for (const auto& t : base) {
      const auto* v = world->knowledge.FindVessel(t.mmsi);
      if (v != nullptr) originals.push_back(*v);
    }
    for (int k = 1; k < factor; ++k) {
      const stream::Mmsi offset = 10000000u * static_cast<stream::Mmsi>(k);
      for (auto v : originals) {
        v.mmsi += offset;
        world->knowledge.AddVessel(v);
      }
    }
  }
  return out;
}

inline void PrintHeader(const char* experiment, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("scale: %.2fx (set MARITIME_BENCH_SCALE to change)\n", Scale());
  std::printf("==============================================================\n");
}

}  // namespace maritime::bench

#endif  // MARITIME_BENCH_BENCH_COMMON_H_
