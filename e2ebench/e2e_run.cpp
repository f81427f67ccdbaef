// Untraced end-to-end run of one workload: tagged NMEA lines through the
// DataScanner, the public SurveillancePipeline and the AlertManagers.
//
//   e2e_run --workload NAME --seed N --seconds S
//
// Prints the end-to-end metrics as a table and, as the last line of standard
// output, one JSON result. Feed generation, the warm-up pass and the
// reference pass are outside every metric. See README.md.

#include "e2e_common.h"

int main(int argc, char** argv) {
  using namespace e2e;
  const Args args = ParseArgs(argc, argv);
  const Workload& w = *args.workload;
  const bool paced = w.speed > 0;

  const Clock::time_point gen_start = Clock::now();
  const Feed feed = MakeFeed(w, args.seed);
  std::fprintf(stderr, "%s: %zu lines generated in %.2f s\n", w.name,
               feed.lines.size(), SecondsSince(gen_start));
  common::ThreadPool pool(PoolWorkers());
  const surveillance::PipelineConfig config = MakeConfig(w, &pool);

  // Set-up takes milliseconds; sample it many times beside the one each pass
  // pays, and report the median.
  std::vector<double> setup_s;
  for (int i = 0; i < 25; ++i) {
    const Clock::time_point t0 = Clock::now();
    System sys = BuildSystem(feed, config);
    setup_s.push_back(SecondsSince(t0));
  }
  (void)RunPipelinePass(feed, w, config, /*paced=*/false);  // warm-up

  // Passes repeat while the next one still fits in --seconds (the previous
  // pass predicts its length), so a run's length does not depend on where the
  // budget falls inside a pass.
  std::vector<PassResult> passes;
  const Clock::time_point measure_start = Clock::now();
  double pass_s = 0;
  while (passes.empty() || SecondsSince(measure_start) + pass_s <= args.seconds) {
    const Clock::time_point pass_start = Clock::now();
    passes.push_back(RunPipelinePass(feed, w, config, paced));
    pass_s = SecondsSince(pass_start);
    setup_s.push_back(passes.back().setup_s);
    const LoopStats& l = passes.back().loop;
    std::fprintf(stderr, "%s pass %zu: %.4f s busy, %.4f s idle, max lag %.3f ms\n",
                 w.name, passes.size(), l.wall_s - l.idle_s, l.idle_s,
                 l.max_lag_ms);
  }
  const double peak_rss_mb = PeakRssMb();

  // Reference outputs, computed after the measurement so its state never
  // counts toward the peak resident memory.
  const PassResult ref =
      RunPipelinePass(feed, w, ReferenceConfig(w, &pool), /*paced=*/false);

  // Every figure is taken per pass, then the median over the passes: one pass
  // slowed by the machine moves none of them.
  std::vector<double> throughput, max_lag, p50, p95;
  size_t attempted = 0, failed = 0, misses = 0, slides = 0;
  for (const PassResult& p : passes) {
    throughput.push_back(static_cast<double>(feed.lines.size()) /
                         p.loop.wall_s);
    max_lag.push_back(p.loop.max_lag_ms);
    p50.push_back(Quantile(p.loop.slide_ms, 0.50));
    p95.push_back(Quantile(p.loop.slide_ms, 0.95));
    attempted += std::max(p.digests.size(), ref.digests.size());
    failed += CountMismatches(p.digests, ref.digests);
    misses += p.loop.deadline_misses;
    slides += p.loop.slides;
  }
  const PassResult& last = passes.back();
  const std::vector<Metric> metrics = {
      {"throughput_lines_per_s", Median(throughput), "lines/s"},
      {"slide_ms_p50", Median(p50), "ms"},
      {"slide_ms_p95", Median(p95), "ms"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"state_bytes", static_cast<double>(last.state_bytes), "bytes"},
  };
  // Printed, not gated: a miss share of 0 has no relative bound, and a
  // maximum over a pass is set by single stalls of the machine (per-pass
  // maxima of one run spread over 3-13 ms on the paced workload).
  const std::vector<Metric> info = {
      {"max_lag_ms", Median(max_lag), "ms"},
      {"deadline_miss_share",
       paced ? static_cast<double>(misses) / static_cast<double>(slides) : 0.0,
       "share"},
      {"failed_slide_share",
       static_cast<double>(failed) / static_cast<double>(attempted), "share"},
      {"slide_samples", static_cast<double>(slides), "count"},
      {"passes", static_cast<double>(passes.size()), "count"},
      {"lines_per_pass", static_cast<double>(feed.lines.size()), "count"},
  };
  PrintResult(w.name, failed == 0, attempted, failed, metrics, info);
  return 0;
}
