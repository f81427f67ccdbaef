// Microbenchmarks (ablation): per-tuple cost of the mobility tracker,
// validating the complexity claims of paper Section 3.1 — O(1) per incoming
// tuple for instantaneous events and gaps, O(m) for long-lasting events —
// by sweeping the history size m. BM_ProcessCruise and BM_ProcessAnchored
// also report heap allocations per tuple (alloc_counter.h), which CI gates.

#include <benchmark/benchmark.h>

#include "alloc_counter.h"
#include "common/thread_pool.h"
#include "sim/scenarios.h"
#include "tracker/mobility_tracker.h"
#include "tracker/sharded_tracker.h"

namespace maritime::tracker {
namespace {

std::vector<stream::PositionTuple> CruiseTuples(int n) {
  return sim::TraceBuilder(1, geo::GeoPoint{24.0, 37.0}, 0)
      .Cruise(45.0, 12.0, static_cast<Duration>(n) * 30, 30)
      .Build();
}

std::vector<stream::PositionTuple> AnchoredTuples(int n) {
  return sim::TraceBuilder(1, geo::GeoPoint{24.0, 37.0}, 0)
      .Drift(static_cast<Duration>(n) * 30, 30, 10.0)
      .Build();
}

/// Runs one vessel's trace through a fresh tracker per iteration. The output
/// vector is reserved up front, so `allocs_per_tuple` counts the tracker's
/// own allocations: the vessel's first-seen setup (index slot, history rings)
/// amortized over the trace, plus any per-tuple churn.
void RunSingleVessel(benchmark::State& state,
                     const std::vector<stream::PositionTuple>& tuples) {
  TrackerParams params;
  params.history_size = static_cast<int>(state.range(0));
  uint64_t allocs = 0;
  std::vector<CriticalPoint> out;
  out.reserve(tuples.size() * 2);
  for (auto _ : state) {
    out.clear();
    const uint64_t before =
        bench::g_heap_allocs.load(std::memory_order_relaxed);
    MobilityTracker tracker(params);
    for (const auto& t : tuples) tracker.Process(t, &out);
    benchmark::DoNotOptimize(out);
    allocs += bench::g_heap_allocs.load(std::memory_order_relaxed) - before;
  }
  const int64_t processed =
      state.iterations() * static_cast<int64_t>(tuples.size());
  state.SetItemsProcessed(processed);
  state.counters["allocs_per_tuple"] =
      bench::kAllocCountingActive && processed > 0
          ? static_cast<double>(allocs) / static_cast<double>(processed)
          : 0.0;
}

void BM_ProcessCruise(benchmark::State& state) {
  RunSingleVessel(state, CruiseTuples(4096));
}
BENCHMARK(BM_ProcessCruise)->Arg(2)->Arg(10)->Arg(50)->Arg(200);

void BM_ProcessAnchored(benchmark::State& state) {
  // Anchored vessels exercise the stop-detection path on every tuple; the
  // stop centroid is O(1) per sample however long the stop lasts.
  RunSingleVessel(state, AnchoredTuples(4096));
}
BENCHMARK(BM_ProcessAnchored)->Arg(2)->Arg(10)->Arg(50)->Arg(200);

void BM_ManyVessels(benchmark::State& state) {
  // Fleet-size scaling: hash-map dispatch must keep per-tuple cost flat.
  const int vessels = static_cast<int>(state.range(0));
  std::vector<std::vector<stream::PositionTuple>> traces;
  for (int v = 0; v < vessels; ++v) {
    traces.push_back(sim::TraceBuilder(static_cast<stream::Mmsi>(v + 1),
                                       geo::GeoPoint{24.0 + 0.01 * v, 37.0},
                                       0)
                         .Cruise(45.0, 12.0, 64 * 30, 30)
                         .Build());
  }
  const auto tuples = sim::MergeTraces(std::move(traces));
  for (auto _ : state) {
    MobilityTracker tracker;
    std::vector<CriticalPoint> out;
    for (const auto& t : tuples) tracker.Process(t, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tuples.size()));
}
BENCHMARK(BM_ManyVessels)->Arg(16)->Arg(128)->Arg(1024);

void BM_ShardedSlide(benchmark::State& state) {
  // Threads axis (paper Section 5.2 scaling): one window slide's batch for a
  // large fleet, processed by an MMSI-sharded tracker on the shared pool.
  // With >= 4 cores, 4 shards should track at >= 2x the 1-shard throughput.
  const int shards = static_cast<int>(state.range(0));
  const int vessels = 512;
  std::vector<std::vector<stream::PositionTuple>> traces;
  for (int v = 0; v < vessels; ++v) {
    traces.push_back(sim::TraceBuilder(static_cast<stream::Mmsi>(v + 1),
                                       geo::GeoPoint{24.0 + 0.01 * v, 37.0},
                                       0)
                         .Cruise(45.0, 12.0, 64 * 30, 30)
                         .Build());
  }
  const auto tuples = sim::MergeTraces(std::move(traces));
  const Timestamp q = tuples.back().tau + 1;
  for (auto _ : state) {
    ShardedMobilityTracker tracker(TrackerParams(), shards,
                                   &common::ThreadPool::Shared());
    auto out = tracker.ProcessSlide(tuples, q);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tuples.size()));
}
BENCHMARK(BM_ShardedSlide)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

}  // namespace
}  // namespace maritime::tracker
