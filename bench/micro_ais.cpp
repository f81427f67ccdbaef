// Microbenchmarks: the AIS decode layer (paper Fig. 1, Data Scanner) —
// DataScanner::FeedTagged over a simulated tagged NMEA feed, reported per
// line in time and in heap allocations.
//
//   BM_DecodeFeed/0  position reports only (types 1 and 18): the steady-state
//                    path, which must not allocate at all.
//   BM_DecodeFeed/1  the realistic mix — two-fragment type 19s,
//                    three-fragment type 5s and 0.2% corrupted checksums;
//                    only the type 5/19 name strings may allocate.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "ais/scanner.h"
#include "alloc_counter.h"
#include "sim/generator.h"
#include "sim/nmea_feed.h"
#include "sim/world.h"

namespace maritime::ais {
namespace {

std::vector<std::string> MakeFeed(bool mixed) {
  sim::World world = sim::BuildWorld(2024);
  sim::FleetConfig cfg;
  cfg.vessels = 200;
  cfg.duration = 6 * kHour;
  cfg.seed = 1;
  sim::FleetSimulator fleet(&world, cfg);
  const auto tuples = fleet.Generate();
  sim::NmeaFeedOptions opts;
  if (mixed) {
    opts.corrupt_prob = 0.002;
  } else {
    opts.extended_class_b_prob = 0.0;
    opts.static_report_every = 0;
  }
  const std::string text =
      sim::EncodeTaggedNmeaFeed(tuples, fleet.fleet(), opts);
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

void BM_DecodeFeed(benchmark::State& state) {
  const bool mixed = state.range(0) == 1;
  const std::vector<std::string> lines = MakeFeed(mixed);
  DataScanner scanner;
  // Warm-up pass: the scanner's reused buffers reach their steady size.
  for (const std::string& line : lines) (void)scanner.FeedTagged(line);
  (void)scanner.TakeStaticReports();
  uint64_t allocs = 0;
  uint64_t fed = 0;
  for (auto _ : state) {
    const uint64_t before = bench::g_heap_allocs.load(std::memory_order_relaxed);
    size_t accepted = 0;
    for (const std::string& line : lines) {
      accepted += scanner.FeedTagged(line).ok() ? 1 : 0;
    }
    allocs += bench::g_heap_allocs.load(std::memory_order_relaxed) - before;
    fed += lines.size();
    benchmark::DoNotOptimize(accepted);
    state.PauseTiming();
    (void)scanner.TakeStaticReports();  // the consumer's job, not decoding
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(fed));
  state.counters["ns_per_line"] = benchmark::Counter(
      static_cast<double>(fed), benchmark::Counter::kIsRate |
                                    benchmark::Counter::kInvert);
  state.counters["allocs_per_line"] =
      bench::kAllocCountingActive && fed > 0
          ? static_cast<double>(allocs) / static_cast<double>(fed)
          : 0.0;
}
BENCHMARK(BM_DecodeFeed)->Arg(0)->Arg(1);

}  // namespace
}  // namespace maritime::ais
