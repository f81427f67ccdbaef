// Shared pieces of the end-to-end benchmark programs (e2e_run.cpp and
// e2e_traced.cpp): the workload table, feed generation, the feed loop that
// paces or free-runs the tagged NMEA lines and fires slide boundaries,
// per-slide output digests, and the result-line printer.
//
// Everything here sits outside the program under test: it only calls the
// public headers under src/.

#ifndef MARITIME_E2EBENCH_E2E_COMMON_H_
#define MARITIME_E2EBENCH_E2E_COMMON_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "ais/scanner.h"
#include "maritime/ais_bridge.h"
#include "maritime/alerts.h"
#include "maritime/pipeline.h"
#include "sim/generator.h"
#include "sim/nmea_feed.h"
#include "sim/world.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"

namespace e2e {

using namespace maritime;
using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ---------------------------------------------------------------------------
// Workloads. README.md explains why each exists and which layer it loads.

struct Workload {
  const char* name;
  int vessels;
  Duration duration;           ///< Stream time the feed spans.
  stream::WindowSpec window;   ///< ω / β.
  int partitions;
  int tracker_shards;
  /// Open loop: line i is due at start + (τ_i − τ_0) / speed. 0 = closed
  /// loop (every line is due as soon as the previous one is decoded).
  double speed;
  Duration rekey_every;        ///< MMSI churn period; 0 = stable MMSIs.
  bool checkpoint_each_slide;  ///< SaveTo + EncodeSnapshotFile per slide.
};

/// Stream seconds replayed per wall second on the paced workload: one slide
/// (β = 5 min) is due every 12.5 ms of wall time.
inline constexpr double kPacedSpeed = 24000.0;

inline const Workload kWorkloads[] = {
    {"replay_dense", 1000, 36 * kHour, {kHour, 10 * kMinute}, 1, 1, 0.0, 0,
     false},
    {"live_longwindow", 250, 24 * kHour, {12 * kHour, 5 * kMinute}, 2, 1,
     kPacedSpeed, 0, false},
    {"churn_checkpoint", 1000, 18 * kHour, {kHour, 5 * kMinute}, 1, 4, 0.0,
     3 * kHour, true},
};

inline const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// The monitored geography is deployment configuration, not workload input:
/// every seed replays its fleet over the same world (the one the examples
/// use).
inline constexpr uint64_t kWorldSeed = 2024;
/// Share of NMEA sentences whose checksum the feed corrupts, so the
/// scanner's reject path runs on every workload.
inline constexpr double kCorruptProb = 0.002;

// ---------------------------------------------------------------------------
// Command line.

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_path;  ///< e2e_traced only: where spans are written.
};

inline Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      a.workload = FindWorkload(value);
      if (a.workload == nullptr) {
        std::fprintf(stderr, "unknown workload %s\n", value);
        std::exit(2);
      }
    } else if (key == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace-out") {
      a.trace_path = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (a.workload == nullptr || !(a.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "[--trace-out PATH]\n",
                 argv[0]);
    std::exit(2);
  }
  return a;
}

// ---------------------------------------------------------------------------
// Feed generation (untimed).

struct Feed {
  std::string text;                     ///< "<tau>\t!AIVDM,...\n" lines.
  std::vector<std::string_view> lines;  ///< Views into `text`.
  std::vector<Timestamp> taus;          ///< Tag of each line.
  /// Registry entries of the generated fleet under its original MMSIs.
  std::vector<surveillance::VesselInfo> registry;
};

/// Simulates the fleet and renders it through the real AIS encoder. On a
/// churn workload every vessel takes a fresh MMSI each `rekey_every` of
/// stream time, the way spoofed or re-flagged transponders look to the
/// tracker; the re-keyed vessels keep their transponder class.
inline Feed MakeFeed(const Workload& w, uint64_t seed) {
  sim::World world = sim::BuildWorld(kWorldSeed);
  sim::FleetConfig cfg;
  cfg.vessels = w.vessels;
  cfg.duration = w.duration;
  cfg.seed = seed;
  sim::FleetSimulator sim(&world, cfg);
  std::vector<stream::PositionTuple> tuples = sim.Generate();
  std::vector<sim::SimVessel> fleet = sim.fleet();

  Feed feed;
  for (const sim::SimVessel& v : fleet) feed.registry.push_back(v.info);

  if (w.rekey_every > 0 && !tuples.empty()) {
    // The simulator numbers its vessels 200000000 + i; each epoch shifts a
    // vessel's MMSI by a further million, so no two keys ever collide.
    constexpr stream::Mmsi kEpochStride = 1000000;
    const Timestamp origin = tuples.front().tau;
    const int64_t epochs = w.duration / w.rekey_every + 2;
    const size_t base = fleet.size();
    for (int64_t e = 1; e < epochs; ++e) {
      for (size_t i = 0; i < base; ++i) {
        sim::SimVessel v = fleet[i];
        v.info.mmsi += static_cast<stream::Mmsi>(e) * kEpochStride;
        fleet.push_back(std::move(v));
      }
    }
    for (stream::PositionTuple& t : tuples) {
      const int64_t e = (t.tau - origin) / w.rekey_every;
      t.mmsi += static_cast<stream::Mmsi>(e) * kEpochStride;
    }
  }

  sim::NmeaFeedOptions opts;
  opts.corrupt_prob = kCorruptProb;
  opts.seed = seed * 0x9E3779B97F4A7C15ull + 1;
  feed.text = sim::EncodeTaggedNmeaFeed(tuples, fleet, opts);

  std::string_view rest = feed.text;
  while (!rest.empty()) {
    const size_t nl = rest.find('\n');
    const std::string_view line = rest.substr(0, nl);
    rest = nl == std::string_view::npos ? std::string_view{}
                                        : rest.substr(nl + 1);
    if (line.empty()) continue;
    feed.lines.push_back(line);
    feed.taus.push_back(std::strtoll(line.data(), nullptr, 10));
  }
  return feed;
}

// ---------------------------------------------------------------------------
// Set-up shared by both programs: the knowledge base is rebuilt from the
// world seed plus the fleet registry, exactly what a deployment loads.

inline std::unique_ptr<sim::World> BuildKnowledge(const Feed& feed) {
  auto world = std::make_unique<sim::World>(sim::BuildWorld(kWorldSeed));
  for (const surveillance::VesselInfo& v : feed.registry) {
    world->knowledge.AddVessel(v);
  }
  return world;
}

inline surveillance::PipelineConfig MakeConfig(const Workload& w,
                                               common::ThreadPool* pool) {
  surveillance::PipelineConfig c;
  c.window = w.window;
  c.partitions = w.partitions;
  c.tracker_shards = w.tracker_shards;
  c.pool = pool;
  return c;
}

/// The reference configuration the outputs are checked against: the naive
/// engine, one tracker shard, strict serial slides, same partitions.
inline surveillance::PipelineConfig ReferenceConfig(const Workload& w,
                                                    common::ThreadPool* pool) {
  surveillance::PipelineConfig c = MakeConfig(w, pool);
  c.tracker_shards = 1;
  c.pipeline_depth = 1;
  c.incremental_recognition = false;
  c.recognition_engine = surveillance::EngineMode::kNaive;
  return c;
}

/// Pool of at most the machine's width (the caller thread joins every
/// ParallelFor, so width - 1 workers).
inline int PoolWorkers() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(std::min(hw, 4u)) - 1;
}

// ---------------------------------------------------------------------------
// Output digests: FNV-1a over every field of a slide's recognition results
// and emitted alerts.

class Digest {
 public:
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ull;
    }
  }
  template <typename T>
  void Pod(const T& v) {
    Bytes(&v, sizeof(v));
  }
  void Term(const rtec::Term& t) {
    Pod(t.kind);
    Pod(t.id);
  }
  void Result(const rtec::RecognitionResult& r) {
    Pod(r.query_time);
    Pod(r.window_start);
    Pod(r.input_events_in_window);
    Pod(r.fluents.size());
    for (const auto& f : r.fluents) {
      Pod(f.fluent);
      Term(f.key);
      Pod(f.value);
      Pod(f.intervals.size());
      for (const auto& iv : f.intervals) {
        Pod(iv.since);
        Pod(iv.till);
      }
    }
    Pod(r.events.size());
    for (const auto& e : r.events) {
      Pod(e.event);
      Term(e.instance.subject);
      Term(e.instance.object);
      Pod(e.instance.t);
    }
  }
  void Alert(const surveillance::Alert& a) {
    Pod(static_cast<int>(a.kind));
    Pod(a.is_fluent);
    Pod(a.fluent);
    Pod(a.event);
    Term(a.subject);
    Term(a.key);
    Pod(a.value);
    Pod(a.at);
    Pod(a.interval.since);
    Pod(a.interval.till);
    Bytes(a.text.data(), a.text.size());
  }
  void Scanner(const ais::ScannerStats& s) {
    for (uint64_t v : {s.lines, s.framing_errors, s.fragment_pending,
                       s.fragment_errors, s.payload_errors, s.unsupported_type,
                       s.invalid_position, s.static_reports, s.accepted}) {
      Pod(v);
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// Digest of one slide: its query time, decoded-tuple count, every
/// partition's result and the alerts they produced. The end-of-stream flush
/// also folds in the final ScannerStats.
inline uint64_t SlideDigest(Timestamp q, size_t tuples,
                            const std::vector<rtec::RecognitionResult>& rs,
                            const std::vector<surveillance::Alert>& alerts,
                            const ais::ScannerStats* final_stats) {
  Digest d;
  d.Pod(q);
  d.Pod(tuples);
  for (const auto& r : rs) d.Result(r);
  d.Pod(alerts.size());
  for (const auto& a : alerts) d.Alert(a);
  if (final_stats != nullptr) d.Scanner(*final_stats);
  return d.value();
}

/// Number of positions where the two digest sequences differ (a length
/// difference counts every missing slide).
inline size_t CountMismatches(const std::vector<uint64_t>& got,
                              const std::vector<uint64_t>& want) {
  size_t bad = 0;
  const size_t n = std::max(got.size(), want.size());
  for (size_t i = 0; i < n; ++i) {
    if (i >= got.size() || i >= want.size() || got[i] != want[i]) ++bad;
  }
  return bad;
}

// ---------------------------------------------------------------------------
// The feed loop. It owns the schedule: which lines are due when, when a slide
// boundary fires, and how late the loop ran. `Sink` supplies
//   void Decode(size_t line_index);  // one due line
//   void Slide(Timestamp q);         // process slide q up to its alerts
//   void Finish();                   // end-of-stream flush
//   void Check();                    // digest the last slide (not timed)
//   void BeginIdle(); void EndIdle();  // around each wait for due work
//
// Closed loop: every line is due when the previous one has been decoded, so
// a line waits only behind slide processing. Open loop (paced): line i is
// due at start + (τ_i − τ_0) / speed, slide q at start + (q − τ_0) / speed,
// and a slide counts as a deadline miss when it ends after slide q + β is
// due.

struct LoopStats {
  double wall_s = 0;      ///< First line fed until Finish() returned, minus
                          ///< the benchmark's own output checks.
  double idle_s = 0;      ///< Paced only: time spent waiting for due work.
  double max_lag_ms = 0;  ///< Largest wait of due work behind the loop.
  std::vector<double> slide_ms;     ///< Latency per regular slide.
  std::vector<double> line_lag_ms;  ///< Per line, when asked for.
  size_t deadline_misses = 0;
  size_t slides = 0;
};

template <typename Sink>
LoopStats RunFeed(const Feed& feed, const Workload& w, bool paced, Sink& sink,
                  bool record_line_lag = false) {
  LoopStats st;
  if (feed.lines.empty()) return st;
  const Timestamp origin = feed.taus.front();
  const Timestamp last = feed.taus.back();
  const Duration beta = w.window.slide;
  Clock::duration check_time{};
  const Clock::time_point start = Clock::now();
  // The schedule shifts by the time spent in output checks, so they never
  // make the loop look late.
  const auto due_at = [&](Timestamp tau) {
    return start + check_time +
           std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(
                   static_cast<double>(tau - origin) / w.speed));
  };
  const auto ms = [](Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  const auto wait_until = [&](Clock::time_point t) {
    const Clock::time_point now = Clock::now();
    if (now >= t) return now;
    sink.BeginIdle();
    std::this_thread::sleep_until(t);
    sink.EndIdle();
    const Clock::time_point woke = Clock::now();
    st.idle_s += std::chrono::duration<double>(woke - now).count();
    return woke;
  };
  const auto check = [&] {
    const Clock::time_point t = Clock::now();
    sink.Check();
    check_time += Clock::now() - t;
  };
  if (record_line_lag) st.line_lag_ms.reserve(feed.lines.size());

  Timestamp q = origin + beta;
  const auto fire = [&](Timestamp slide_q) {
    Clock::time_point begin;
    Clock::time_point due;
    if (paced) {
      due = due_at(slide_q);
      begin = wait_until(due);
      st.max_lag_ms = std::max(st.max_lag_ms, ms(begin - due));
    } else {
      begin = Clock::now();
      due = begin;
    }
    sink.Slide(slide_q);
    const Clock::time_point end = Clock::now();
    st.slide_ms.push_back(ms(end - due));
    ++st.slides;
    if (paced && end > due_at(slide_q + beta)) ++st.deadline_misses;
    check();
    return end - begin;
  };

  for (size_t i = 0; i < feed.lines.size(); ++i) {
    double lag = 0.0;
    if (feed.taus[i] > q) {
      Clock::duration stalled{};
      while (feed.taus[i] > q) {
        stalled += fire(q);
        q += beta;
      }
      if (!paced) lag = ms(stalled);
    }
    if (paced) {
      const Clock::time_point due = due_at(feed.taus[i]);
      lag = ms(wait_until(due) - due);
    }
    st.max_lag_ms = std::max(st.max_lag_ms, lag);
    if (record_line_lag) st.line_lag_ms.push_back(lag);
    sink.Decode(i);
  }
  // Fire the slides still open up to the last tag, as Run() does, then flush.
  while (true) {
    fire(q);
    if (q >= last) break;
    q += beta;
  }
  sink.Finish();
  st.wall_s =
      std::chrono::duration<double>(Clock::now() - start - check_time).count();
  check();
  return st;
}

// ---------------------------------------------------------------------------
// The untraced end-to-end pass: the public SurveillancePipeline behind the
// DataScanner, with one AlertManager per partition.

/// Everything set-up builds: the knowledge base, the pipeline and the alert
/// managers. Heap-held so the pipeline's pointer into the knowledge base
/// stays valid.
struct System {
  std::unique_ptr<sim::World> world;
  std::unique_ptr<surveillance::SurveillancePipeline> pipeline;
  std::vector<surveillance::AlertManager> alerts;
};

inline System BuildSystem(const Feed& feed,
                          const surveillance::PipelineConfig& config) {
  System s;
  s.world = BuildKnowledge(feed);
  s.pipeline = std::make_unique<surveillance::SurveillancePipeline>(
      &s.world->knowledge, config);
  for (int p = 0; p < s.pipeline->recognizer().partition_count(); ++p) {
    s.alerts.emplace_back(&s.pipeline->recognizer().partition(p).engine());
  }
  return s;
}

/// Serialized size of a pipeline checkpoint: SaveTo into memory plus the
/// checksummed file container, nothing written to disk.
inline size_t CheckpointBytes(const surveillance::SurveillancePipeline& p) {
  snapshot::Writer w;
  p.SaveTo(w);
  return snapshot::EncodeSnapshotFile(w.bytes()).size();
}

struct PipelineSink {
  PipelineSink(const Feed& f, System& s, bool checkpoint)
      : feed(f), sys(s), checkpoint_each_slide(checkpoint) {}

  const Feed& feed;
  System& sys;
  bool checkpoint_each_slide;
  ais::DataScanner scanner;
  std::vector<stream::PositionTuple> batch;
  // The last slide's output, digested by Check().
  surveillance::SlideReport report;
  size_t report_tuples = 0;
  std::vector<surveillance::Alert> slide_alerts;
  bool final_flush = false;
  std::vector<uint64_t> digests;

  void Decode(size_t i) {
    Result<stream::PositionTuple> r = scanner.FeedTagged(feed.lines[i]);
    if (r.ok()) batch.push_back(r.value());
  }
  void EmitAlerts() {
    slide_alerts.clear();
    for (size_t p = 0; p < report.recognition.size(); ++p) {
      for (surveillance::Alert& a :
           sys.alerts[p].Process(report.recognition[p])) {
        slide_alerts.push_back(std::move(a));
      }
    }
  }
  void Slide(Timestamp q) {
    surveillance::ApplyStaticReports(sys.world->knowledge, scanner);
    report = sys.pipeline->RunSlide(q, batch);
    EmitAlerts();
    report_tuples = batch.size();
    batch.clear();
    if (checkpoint_each_slide) (void)CheckpointBytes(*sys.pipeline);
  }
  void Finish() {
    surveillance::ApplyStaticReports(sys.world->knowledge, scanner);
    report = sys.pipeline->Finish();
    EmitAlerts();
    report_tuples = 0;
    final_flush = true;
  }
  void Check() {
    digests.push_back(SlideDigest(report.query_time, report_tuples,
                                  report.recognition, slide_alerts,
                                  final_flush ? &scanner.stats() : nullptr));
  }
  void BeginIdle() {}
  void EndIdle() {}
};

struct PassResult {
  LoopStats loop;
  double setup_s = 0;
  size_t state_bytes = 0;  ///< Checkpoint after Finish(), outside the clock.
  std::vector<uint64_t> digests;
};

/// One untraced pass: timed set-up, the feed loop, then the end-of-run
/// checkpoint size.
inline PassResult RunPipelinePass(const Feed& feed, const Workload& w,
                                  const surveillance::PipelineConfig& config,
                                  bool paced) {
  PassResult out;
  const Clock::time_point t0 = Clock::now();
  System sys = BuildSystem(feed, config);
  out.setup_s = SecondsSince(t0);
  PipelineSink sink(feed, sys, w.checkpoint_each_slide);
  out.loop = RunFeed(feed, w, paced, sink);
  out.state_bytes = CheckpointBytes(*sys.pipeline);
  out.digests = std::move(sink.digests);
  return out;
}

// ---------------------------------------------------------------------------
// Statistics and output.

inline double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

inline double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Prints the human-readable table, then the result as the last line of
/// standard output.
inline void PrintResult(const char* workload, bool correct, size_t attempted,
                        size_t failed, const std::vector<Metric>& metrics,
                        const std::vector<Metric>& info) {
  for (const Metric& m : metrics) {
    std::printf("# %-18s %-32s %16.6f %s\n", workload, m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : info) {
    std::printf("# %-18s %-32s %16.6f %s  (not gated)\n", workload,
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace e2e

#endif  // MARITIME_E2EBENCH_E2E_COMMON_H_
