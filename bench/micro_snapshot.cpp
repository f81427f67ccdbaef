// Microbenchmarks: the checkpoint path (DESIGN.md §9) — the CRC-32 kernel
// that guards every snapshot payload, and one whole pipeline checkpoint.
//
//   BM_Crc32/<bytes>       snapshot::Crc32 over a random buffer (bytes/s).
//   BM_PipelineCheckpoint  SaveTo + EncodeSnapshotFile, into memory, of a
//                          pipeline advanced kSlides slides over a fleet whose
//                          MMSIs are re-keyed every hour, so the tracker holds
//                          several generations of vessels. Reports the file
//                          size (`bytes`) and heap allocations per checkpoint
//                          (`allocs_per_checkpoint`), which CI gates.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "alloc_counter.h"
#include "common/rng.h"
#include "maritime/pipeline.h"
#include "sim/generator.h"
#include "sim/world.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "stream/replayer.h"

namespace maritime::snapshot {
namespace {

void BM_Crc32(benchmark::State& state) {
  Rng rng(7);
  std::string bytes(static_cast<size_t>(state.range(0)), '\0');
  for (char& b : bytes) b = static_cast<char>(rng.NextU64() & 0xFFu);
  for (auto _ : state) benchmark::DoNotOptimize(Crc32(bytes));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4096)->Arg(262144)->Arg(4194304);

constexpr int kSlides = 36;                  // 3 h of 5-minute slides
constexpr Duration kRekeyEvery = kHour;      // fresh MMSIs every hour
constexpr stream::Mmsi kEpochStride = 1000000;

/// Simulated positions with every vessel taking a fresh MMSI each
/// kRekeyEvery of stream time (the simulator numbers vessels 200000000 + i,
/// so epochs a million apart never collide).
std::vector<stream::PositionTuple> ChurnedTuples(sim::World* world) {
  sim::FleetConfig cfg;
  cfg.vessels = 300;
  cfg.duration = 4 * kHour;
  cfg.seed = 3;
  sim::FleetSimulator fleet(world, cfg);
  std::vector<stream::PositionTuple> tuples = fleet.Generate();
  if (tuples.empty()) return tuples;
  const Timestamp origin = tuples.front().tau;
  for (stream::PositionTuple& t : tuples) {
    t.mmsi += static_cast<stream::Mmsi>((t.tau - origin) / kRekeyEvery) *
              kEpochStride;
  }
  return tuples;
}

void BM_PipelineCheckpoint(benchmark::State& state) {
  sim::World world = sim::BuildWorld(2024);
  stream::StreamReplayer replayer(ChurnedTuples(&world));
  surveillance::PipelineConfig cfg;
  cfg.window = stream::WindowSpec{kHour, 5 * kMinute};
  cfg.tracker_shards = 4;
  surveillance::SurveillancePipeline pipeline(&world.knowledge, cfg);
  stream::QueryTimeSequence q(cfg.window, replayer.first_timestamp());
  for (int i = 0; i < kSlides; ++i) {
    const Timestamp qt = q.Fire();
    (void)pipeline.RunSlide(qt, replayer.NextBatch(qt));
  }

  uint64_t allocs = 0;
  size_t bytes = 0;
  for (auto _ : state) {
    const uint64_t before = bench::g_heap_allocs.load(std::memory_order_relaxed);
    Writer w;
    pipeline.SaveTo(w);
    const std::string file = EncodeSnapshotFile(w.bytes());
    allocs += bench::g_heap_allocs.load(std::memory_order_relaxed) - before;
    bytes = file.size();
    benchmark::DoNotOptimize(file.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
  state.counters["bytes"] = static_cast<double>(bytes);
  state.counters["allocs_per_checkpoint"] =
      bench::kAllocCountingActive && state.iterations() > 0
          ? static_cast<double>(allocs) /
                static_cast<double>(state.iterations())
          : 0.0;
}
BENCHMARK(BM_PipelineCheckpoint)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace maritime::snapshot
