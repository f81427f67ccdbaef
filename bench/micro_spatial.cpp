// Microbenchmark (ablation): the spatial engines behind the `close`
// predicate. DESIGN.md calls the spatial index our equivalent of RTEC's
// "declarations" facility — it restricts spatial reasoning to candidate
// areas near a point. Axes:
//   - engine: brute (all-areas scan, the oracle) / tiered (tri-state cell
//     labels + edge buckets);
//   - area count: 35 (the paper's world) up to 2240;
//   - tiered cell size, for the cell-granularity trade-off (measured on a
//     geo::SpatialIndex directly: the KnowledgeBase uses the default size);
// plus the batched AreasCloseToAll lookup and PortContaining across
// engines. Both engines return identical results (asserted in
// tests/spatial_index_test.cc); only speed differs.
//
// Single runs carry the host's noise; regenerate BENCH_spatial.json with
//   micro_spatial --benchmark_repetitions=5
//     --benchmark_report_aggregates_only=true
// so every row reports mean, median, stddev, cv and iqr over 5 repetitions.

#include <benchmark/benchmark.h>

#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "geo/spatial_index.h"
#include "maritime/knowledge.h"
#include "sim/world.h"

namespace maritime::surveillance {
namespace {

SpatialEngine EngineOf(int64_t axis) {
  return axis == 0 ? SpatialEngine::kBrute : SpatialEngine::kTiered;
}

/// The random area set every area-count axis draws from.
std::vector<AreaInfo> RandomAreas(int areas, uint64_t seed) {
  Rng rng(seed);
  std::vector<AreaInfo> out;
  for (int i = 0; i < areas; ++i) {
    AreaInfo a;
    a.id = i + 1;
    a.kind = static_cast<AreaKind>(i % 3);
    a.polygon = geo::Polygon::RegularPolygon(
        geo::GeoPoint{rng.NextDouble(22.5, 27.5), rng.NextDouble(35.0, 41.0)},
        rng.NextDouble(2000.0, 8000.0), 8);
    if (a.kind == AreaKind::kShallow) a.depth_m = 4.0;
    out.push_back(std::move(a));
  }
  return out;
}

KnowledgeBase MakeKbWithAreas(int areas, uint64_t seed, SpatialEngine engine) {
  KnowledgeBase kb(1000.0, engine);
  for (AreaInfo& a : RandomAreas(areas, seed)) kb.AddArea(std::move(a));
  return kb;
}

std::vector<geo::GeoPoint> QueryPoints(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<geo::GeoPoint> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(geo::GeoPoint{rng.NextDouble(22.5, 27.5),
                                rng.NextDouble(35.0, 41.0)});
  }
  return out;
}

/// A vessel-like query trace: spatially coherent runs instead of uniform
/// jumps, the access pattern the one-entry locality cache is built for.
std::vector<geo::GeoPoint> TrackQueryPoints(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<geo::GeoPoint> out;
  geo::GeoPoint p{rng.NextDouble(22.5, 27.5), rng.NextDouble(35.0, 41.0)};
  for (int i = 0; i < n; ++i) {
    if (i % 64 == 0) {
      p = geo::GeoPoint{rng.NextDouble(22.5, 27.5),
                        rng.NextDouble(35.0, 41.0)};
    }
    p.lon += rng.NextDouble(-0.002, 0.002);
    p.lat += rng.NextDouble(-0.002, 0.002);
    out.push_back(p);
  }
  return out;
}

// --- engine x area-count ----------------------------------------------------

void BM_AreasCloseTo(benchmark::State& state) {
  const KnowledgeBase kb = MakeKbWithAreas(static_cast<int>(state.range(1)),
                                           11, EngineOf(state.range(0)));
  const auto points = QueryPoints(1024, 12);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kb.AreasCloseTo(points[i++ & 1023]));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string(SpatialEngineName(kb.spatial_engine())));
}
BENCHMARK(BM_AreasCloseTo)->ArgsProduct({{0, 1}, {35, 140, 560, 2240}})
    ->ComputeStatistics("iqr", bench::Iqr);

// --- tiered cell-size axis --------------------------------------------------

void BM_AreasCloseTo_TieredCellDeg(benchmark::State& state) {
  // range(0) is the cell size in millidegrees.
  geo::SpatialIndex::Options options;
  options.cell_deg = static_cast<double>(state.range(0)) / 1000.0;
  geo::SpatialIndex index(1000.0, options);
  for (const AreaInfo& a : RandomAreas(560, 11)) index.Insert(a.id, a.polygon);
  const auto points = QueryPoints(1024, 12);
  geo::SpatialIndex::Cache cache;
  size_t i = 0;
  for (auto _ : state) {
    std::vector<int32_t> out;
    index.AreasCloseTo(points[i++ & 1023], &out, &cache);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AreasCloseTo_TieredCellDeg)->Arg(5)->Arg(10)->Arg(20)->Arg(50)
    ->Arg(100)
    ->ComputeStatistics("iqr", bench::Iqr);

// --- batched lookup (vessel-track access pattern) ---------------------------

void BM_AreasCloseToAll(benchmark::State& state) {
  const KnowledgeBase kb = MakeKbWithAreas(static_cast<int>(state.range(1)),
                                           11, EngineOf(state.range(0)));
  const auto points = TrackQueryPoints(1024, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kb.AreasCloseToAll(points));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(points.size()));
  state.SetLabel(std::string(SpatialEngineName(kb.spatial_engine())));
}
BENCHMARK(BM_AreasCloseToAll)->ArgsProduct({{0, 1}, {35, 560}})
    ->ComputeStatistics("iqr", bench::Iqr);

// --- PortContaining across engines ------------------------------------------

void BM_PortContaining(benchmark::State& state) {
  sim::WorldParams params;
  sim::World world = sim::BuildWorld(13, params);
  KnowledgeBase kb(params.close_threshold_m, EngineOf(state.range(0)));
  for (const AreaInfo& a : world.knowledge.areas()) kb.AddArea(a);
  const auto points = QueryPoints(1024, 14);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kb.PortContaining(points[i++ & 1023]));
  }
  state.SetLabel(std::string(SpatialEngineName(kb.spatial_engine())));
}
BENCHMARK(BM_PortContaining)->Arg(0)->Arg(1)
    ->ComputeStatistics("iqr", bench::Iqr);

}  // namespace
}  // namespace maritime::surveillance
