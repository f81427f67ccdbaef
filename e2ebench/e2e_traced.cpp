// Traced run of one workload: the same path as e2e_run, but composed from
// each layer's public calls — DataScanner, ShardedMobilityTracker,
// PartitionedRecognizer (Stage / Feed / Recognize), HermesArchiver,
// AlertManager and the snapshot codec — mirroring
// SurveillancePipeline::CommitNextSlide / ArchiveEvicted / Finish, with a span
// around every call and a counting operator new.
//
//   e2e_traced --workload NAME --seed N --seconds S [--trace-out PATH]
//
// Untraced pipeline passes and traced passes alternate; the difference of
// their busy time is the tracing overhead. Every pass's per-slide digests
// must equal the reference's, and the traced ones the untraced ones. Spans
// of the last traced pass are written to PATH as tab-separated rows.

#include <atomic>
#include <cstdlib>
#include <deque>
#include <new>

#include "e2e_common.h"
#include "tracker/snapshot_io.h"

namespace e2e {
std::atomic<uint64_t> g_heap_allocs{0};
}  // namespace e2e

// The replaced operators pair new->malloc with delete->free by construction;
// GCC's mismatched-new-delete heuristic cannot see that pairing.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  e2e::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, std::align_val_t align) {
  e2e::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::aligned_alloc(static_cast<std::size_t>(align), size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace e2e {
namespace {

// ---------------------------------------------------------------------------
// Spans.

enum Layer : uint8_t {
  kAis,             // DataScanner::FeedTagged bursts + static-report merge
  kTracker,         // ShardedMobilityTracker::ProcessSlide / Finish
  kRecogStage,      // PartitionedRecognizer::Stage (spatial facts)
  kRecogFeed,       // PartitionedRecognizer::Feed
  kRecogRecognize,  // PartitionedRecognizer::Recognize
  kArchive,         // window eviction + HermesArchiver::ArchiveBatch
  kAlerts,          // AlertManager::Process
  kSnapshot,        // SaveTo of every layer + EncodeSnapshotFile
  kSlide,           // root of one slide's blocking path
  kIdle,            // paced feed loop waiting for due work
  kLayerCount,
};
constexpr const char* kLayerNames[kLayerCount] = {
    "ais",     "tracker", "recog.stage", "recog.feed", "recog.recognize",
    "archive", "alerts",  "snapshot",    "slide",      "idle"};

struct Span {
  int64_t start_ns;
  int64_t end_ns;
  uint64_t allocs;  ///< Heap allocations while the span was open.
  int32_t parent;   ///< Index of the enclosing span, -1 for a root.
  uint32_t slide;   ///< Slide id shared by every span of one slide.
  Layer layer;
};

class Tracer {
 public:
  /// Reserves `capacity` spans up front: growing the vector inside a span
  /// would put allocations into whichever layer happened to be open.
  Tracer(Clock::time_point epoch, size_t capacity) : epoch_(epoch) {
    spans_.reserve(capacity);
  }

  int32_t Open(Layer layer, uint32_t slide, int32_t parent = -1) {
    spans_.push_back(Span{Now(), 0, g_heap_allocs.load(std::memory_order_relaxed),
                          parent, slide, layer});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t id) {
    Span& s = spans_[static_cast<size_t>(id)];
    s.end_ns = Now();
    s.allocs = g_heap_allocs.load(std::memory_order_relaxed) - s.allocs;
  }
  const std::vector<Span>& spans() const { return spans_; }
  std::vector<Span> TakeSpans() { return std::move(spans_); }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Self time per layer: each span's duration minus the part its children
/// cover (children of one span are sequential, so their durations add).
struct LayerTotals {
  double self_ns[kLayerCount] = {};
  uint64_t allocs_self[kLayerCount] = {};
};

LayerTotals Summarize(const std::vector<Span>& spans) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  std::vector<uint64_t> child_allocs(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      child_allocs[static_cast<size_t>(s.parent)] += s.allocs;
    }
  }
  LayerTotals t;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    t.self_ns[s.layer] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]);
    t.allocs_self[s.layer] += s.allocs - child_allocs[i];
  }
  return t;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "id\tslide\tname\tparent\tstart_ns\tend_ns\tallocs\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu\t%u\t%s\t%d\t%lld\t%lld\t%llu\n", i, s.slide,
                 kLayerNames[s.layer], s.parent,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.allocs));
  }
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// The traced composition.

/// The layers SurveillancePipeline owns, built from the same config through
/// their public constructors.
struct Composition {
  Composition(const Feed& feed, const surveillance::PipelineConfig& c)
      : config(c),
        world(BuildKnowledge(feed)),
        tracker(c.tracker, c.tracker_shards, c.pool) {
    surveillance::RecognizerConfig rc;
    rc.window = c.window;
    rc.ce = c.ce;
    rc.incremental = c.incremental_recognition;
    rc.engine = c.recognition_engine;
    rc.parallel_keys = c.parallel_recognition_keys;
    recognizer = std::make_unique<surveillance::PartitionedRecognizer>(
        world->knowledge, rc, c.partitions, c.pool);
    if (c.archive) {
      archiver = std::make_unique<mod::HermesArchiver>(&world->knowledge);
    }
    for (int p = 0; p < recognizer->partition_count(); ++p) {
      alerts.emplace_back(&recognizer->partition(p).engine());
    }
  }

  surveillance::PipelineConfig config;
  std::unique_ptr<sim::World> world;
  tracker::ShardedMobilityTracker tracker;
  std::unique_ptr<surveillance::PartitionedRecognizer> recognizer;
  std::unique_ptr<mod::HermesArchiver> archiver;
  std::vector<surveillance::AlertManager> alerts;
  std::deque<tracker::CriticalPoint> window_criticals;
  std::vector<tracker::CriticalPoint> all_criticals;
  Timestamp last_query = kInvalidTimestamp;
};

/// Counts one traced pass gathers besides its spans.
struct TracedCounts {
  size_t lines = 0;
  ais::ScannerStats scanner;
  size_t tuples = 0;
  size_t critical_points = 0;
  std::vector<size_t> shard_tuples;
  size_t resident_vessels = 0;
  size_t input_facts = 0;
  size_t ces = 0;
  double cache_hit_rate = 0;
  size_t archived_points = 0;
  size_t trips = 0;
  size_t alerts = 0;
  size_t checkpoints = 0;
  size_t checkpoint_bytes = 0;
};

class TracedSink {
 public:
  TracedSink(const Feed& feed, Composition& c, Tracer& tracer,
             bool checkpoint_each_slide)
      : feed_(feed), c_(c), tr_(tracer), checkpoint_(checkpoint_each_slide) {
    counts_.shard_tuples.assign(static_cast<size_t>(c.tracker.shard_count()),
                                0);
  }

  void Decode(size_t i) {
    if (ais_span_ < 0) ais_span_ = tr_.Open(kAis, slide_id_);
    Result<stream::PositionTuple> r = scanner_.FeedTagged(feed_.lines[i]);
    if (r.ok()) batch_.push_back(r.value());
  }
  void BeginIdle() {
    CloseAis();
    idle_span_ = tr_.Open(kIdle, slide_id_);
  }
  void EndIdle() { tr_.Close(idle_span_); }

  // Mirrors SurveillancePipeline::RunSlide at depth 1 (StageSlide +
  // CommitNextSlide + ArchiveEvicted), then the alert managers.
  void Slide(Timestamp q) {
    CloseAis();
    const int32_t root = tr_.Open(kSlide, slide_id_);
    Ais(root);
    int32_t s = tr_.Open(kTracker, slide_id_, root);
    std::vector<tracker::ShardSlideStats> shard_stats;
    std::vector<tracker::CriticalPoint> criticals = c_.tracker.ProcessSlide(
        std::span<const stream::PositionTuple>(batch_), q, &shard_stats);
    tr_.Close(s);
    s = tr_.Open(kRecogStage, slide_id_, root);
    surveillance::PartitionedRecognizer::StagedFeed staged =
        c_.recognizer->Stage(
            std::span<const tracker::CriticalPoint>(criticals));
    tr_.Close(s);
    s = tr_.Open(kRecogFeed, slide_id_, root);
    c_.recognizer->Feed(std::move(staged));
    tr_.Close(s);
    for (const auto& cp : criticals) {
      c_.window_criticals.push_back(cp);
      c_.all_criticals.push_back(cp);
    }
    s = tr_.Open(kRecogRecognize, slide_id_, root);
    results_ = c_.recognizer->Recognize(q);
    tr_.Close(s);
    c_.last_query = q;
    s = tr_.Open(kArchive, slide_id_, root);
    ArchiveEvicted(q);
    tr_.Close(s);
    EmitAlerts(root);
    if (checkpoint_) Checkpoint(root);
    tr_.Close(root);

    report_q_ = q;
    report_tuples_ = batch_.size();
    counts_.tuples += batch_.size();
    counts_.critical_points += criticals.size();
    for (size_t i = 0; i < shard_stats.size(); ++i) {
      counts_.shard_tuples[i] += shard_stats[i].tuples;
    }
    batch_.clear();
    ++slide_id_;
  }

  // Mirrors SurveillancePipeline::Finish.
  void Finish() {
    CloseAis();
    const int32_t root = tr_.Open(kSlide, slide_id_);
    Ais(root);
    int32_t s = tr_.Open(kTracker, slide_id_, root);
    std::vector<tracker::CriticalPoint> tail;
    c_.tracker.Finish(&tail);
    tr_.Close(s);
    for (const auto& cp : tail) {
      c_.all_criticals.push_back(cp);
      c_.window_criticals.push_back(cp);
    }
    results_.clear();
    report_q_ = 0;
    if (!tail.empty()) {
      s = tr_.Open(kRecogFeed, slide_id_, root);
      c_.recognizer->Feed(std::span<const tracker::CriticalPoint>(tail));
      tr_.Close(s);
      Timestamp tail_end = tail.front().tau;
      for (const auto& cp : tail) tail_end = std::max(tail_end, cp.tau);
      report_q_ = c_.last_query == kInvalidTimestamp
                      ? tail_end
                      : c_.last_query + c_.config.window.slide;
      s = tr_.Open(kRecogRecognize, slide_id_, root);
      results_ = c_.recognizer->Recognize(report_q_);
      tr_.Close(s);
      c_.last_query = report_q_;
    }
    if (c_.archiver != nullptr) {
      s = tr_.Open(kArchive, slide_id_, root);
      std::vector<tracker::CriticalPoint> rest(c_.window_criticals.begin(),
                                               c_.window_criticals.end());
      c_.window_criticals.clear();
      counts_.archived_points += rest.size();
      if (!rest.empty()) c_.archiver->ArchiveBatch(rest);
      tr_.Close(s);
    }
    EmitAlerts(root);
    tr_.Close(root);
    counts_.critical_points += tail.size();
    report_tuples_ = 0;
    final_flush_ = true;
  }

  void Check() {
    digests_.push_back(SlideDigest(report_q_, report_tuples_, results_,
                                   slide_alerts_,
                                   final_flush_ ? &scanner_.stats() : nullptr));
  }

  /// The end-of-run checkpoint (outside the pass clock), then the counts.
  TracedCounts Done() {
    const int32_t root = tr_.Open(kSlide, slide_id_);
    Checkpoint(root);
    tr_.Close(root);
    counts_.lines = feed_.lines.size();
    counts_.scanner = scanner_.stats();
    counts_.resident_vessels = c_.tracker.vessel_count();
    const auto totals = c_.recognizer->totals();
    const size_t lookups = totals.cache_hits + totals.cache_misses;
    counts_.cache_hit_rate =
        lookups == 0 ? 0.0
                     : static_cast<double>(totals.cache_hits) /
                           static_cast<double>(lookups);
    counts_.trips =
        c_.archiver != nullptr ? c_.archiver->store().trip_count() : 0;
    return counts_;
  }

  std::vector<uint64_t>& digests() { return digests_; }

 private:
  void CloseAis() {
    if (ais_span_ >= 0) tr_.Close(ais_span_);
    ais_span_ = -1;
  }
  /// Type 5 reports decoded since the last slide teach the registry.
  void Ais(int32_t root) {
    const int32_t s = tr_.Open(kAis, slide_id_, root);
    surveillance::ApplyStaticReports(c_.world->knowledge, scanner_);
    tr_.Close(s);
  }
  void ArchiveEvicted(Timestamp q) {
    if (c_.archiver == nullptr) return;
    const Timestamp cutoff = q - c_.config.window.range;
    std::vector<tracker::CriticalPoint> evicted;
    while (!c_.window_criticals.empty() &&
           c_.window_criticals.front().tau <= cutoff) {
      evicted.push_back(c_.window_criticals.front());
      c_.window_criticals.pop_front();
    }
    counts_.archived_points += evicted.size();
    if (!evicted.empty()) c_.archiver->ArchiveBatch(evicted);
  }
  void EmitAlerts(int32_t root) {
    const int32_t s = tr_.Open(kAlerts, slide_id_, root);
    slide_alerts_.clear();
    for (size_t p = 0; p < results_.size(); ++p) {
      for (surveillance::Alert& a : c_.alerts[p].Process(results_[p])) {
        slide_alerts_.push_back(std::move(a));
      }
    }
    tr_.Close(s);
    counts_.alerts += slide_alerts_.size();
    for (const auto& r : results_) {
      counts_.input_facts += r.input_events_in_window;
      counts_.ces += r.RecognizedCount();
    }
  }
  /// The same state SurveillancePipeline::SaveTo serializes, layer by layer
  /// (without its manifest and section frames), in the file container.
  void Checkpoint(int32_t root) {
    const int32_t s = tr_.Open(kSnapshot, slide_id_, root);
    snapshot::Writer w;
    c_.tracker.SaveTo(w);
    c_.recognizer->SaveTo(w);
    w.U64(c_.window_criticals.size());
    for (const auto& cp : c_.window_criticals) {
      tracker::SaveCriticalPoint(cp, w);
    }
    w.Bool(c_.archiver != nullptr);
    if (c_.archiver != nullptr) c_.archiver->SaveTo(w);
    const std::string file = snapshot::EncodeSnapshotFile(w.bytes());
    tr_.Close(s);
    ++counts_.checkpoints;
    counts_.checkpoint_bytes += file.size();
  }

  const Feed& feed_;
  Composition& c_;
  Tracer& tr_;
  bool checkpoint_;
  ais::DataScanner scanner_;
  std::vector<stream::PositionTuple> batch_;
  int32_t ais_span_ = -1;
  int32_t idle_span_ = -1;
  uint32_t slide_id_ = 0;
  std::vector<rtec::RecognitionResult> results_;
  std::vector<surveillance::Alert> slide_alerts_;
  Timestamp report_q_ = 0;
  size_t report_tuples_ = 0;
  bool final_flush_ = false;
  std::vector<uint64_t> digests_;
  TracedCounts counts_;
};

struct TracedPass {
  LoopStats loop;
  TracedCounts counts;
  LayerTotals layers;
  std::vector<Span> spans;
  std::vector<uint64_t> digests;
};

TracedPass RunTracedPass(const Feed& feed, const Workload& w,
                         const surveillance::PipelineConfig& config,
                         bool paced) {
  TracedPass out;
  Composition comp(feed, config);
  // A slide opens at most 10 spans; paced decoding adds an ais and an idle
  // span per wait at most, and a wait needs a line to wait for.
  const size_t slides = static_cast<size_t>(
      (feed.taus.back() - feed.taus.front()) / w.window.slide + 4);
  Tracer tracer(Clock::now(),
                12 * slides + (paced ? 2 * feed.lines.size() : 0));
  TracedSink sink(feed, comp, tracer, w.checkpoint_each_slide);
  out.loop = RunFeed(feed, w, paced, sink, /*record_line_lag=*/true);
  out.counts = sink.Done();
  out.digests = std::move(sink.digests());
  out.layers = Summarize(tracer.spans());
  out.spans = tracer.TakeSpans();
  return out;
}

double Busy(const LoopStats& s) { return s.wall_s - s.idle_s; }

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  const Args args = ParseArgs(argc, argv);
  const Workload& w = *args.workload;
  const bool paced = w.speed > 0;

  const Feed feed = MakeFeed(w, args.seed);
  common::ThreadPool pool(PoolWorkers());
  const surveillance::PipelineConfig config = MakeConfig(w, &pool);

  // Warm-up, then untraced and traced passes in turn while the next pair
  // still fits in --seconds; at least two traced passes, so the allocation
  // counts can be checked for repeats.
  (void)RunPipelinePass(feed, w, config, /*paced=*/false);
  std::vector<PassResult> plain;
  std::vector<TracedPass> traced;
  const Clock::time_point measure_start = Clock::now();
  double pair_s = 0;
  while (traced.size() < 2 ||
         SecondsSince(measure_start) + pair_s <= args.seconds) {
    const Clock::time_point pair_start = Clock::now();
    // Alternate which side runs first, so order effects cancel.
    if (traced.size() % 2 == 0) {
      plain.push_back(RunPipelinePass(feed, w, config, paced));
      traced.push_back(RunTracedPass(feed, w, config, paced));
    } else {
      traced.push_back(RunTracedPass(feed, w, config, paced));
      plain.push_back(RunPipelinePass(feed, w, config, paced));
    }
    if (traced.size() > 2) traced[traced.size() - 2].spans.clear();
    pair_s = SecondsSince(pair_start);
  }
  const PassResult ref =
      RunPipelinePass(feed, w, ReferenceConfig(w, &pool), /*paced=*/false);

  // Allocation counts must repeat exactly from pass to pass, except in a
  // layer that fans out over the work-stealing pool: which end of a worker
  // deque a task leaves from depends on steals, and so do the deque's chunk
  // allocations (a handful in a pass). Those differences are printed only.
  bool pooled[kLayerCount] = {};
  pooled[kTracker] = w.tracker_shards > 1;
  pooled[kRecogRecognize] = w.partitions > 1;
  size_t attempted = 0, failed = 0, alloc_mismatches = 0, pooled_drift = 0;
  for (size_t i = 0; i < traced.size(); ++i) {
    attempted += std::max(plain[i].digests.size(), ref.digests.size());
    failed += CountMismatches(plain[i].digests, ref.digests);
    attempted += std::max(traced[i].digests.size(), ref.digests.size());
    failed += CountMismatches(traced[i].digests, plain[i].digests);
    for (int l = 0; l < kLayerCount; ++l) {
      const uint64_t a = traced[i].layers.allocs_self[l];
      const uint64_t b = traced[0].layers.allocs_self[l];
      if (a == b) continue;
      if (pooled[l]) {
        pooled_drift = std::max<size_t>(pooled_drift, a > b ? a - b : b - a);
      } else {
        std::fprintf(stderr, "allocation count of %s differs: %llu vs %llu\n",
                     kLayerNames[l], static_cast<unsigned long long>(a),
                     static_cast<unsigned long long>(b));
        ++alloc_mismatches;
      }
    }
  }
  if (!args.trace_path.empty()) WriteSpans(args.trace_path, traced.back().spans);

  // Per-layer figures: medians over the traced passes.
  const auto med = [&](auto f) {
    std::vector<double> v;
    for (const TracedPass& p : traced) v.push_back(f(p));
    return Median(std::move(v));
  };
  const auto self_ns = [](const TracedPass& p, Layer l) {
    return p.layers.self_ns[l];
  };
  const auto allocs = [](const TracedPass& p, Layer l) {
    return static_cast<double>(p.layers.allocs_self[l]);
  };
  const auto wall_ns = [](const TracedPass& p) { return p.loop.wall_s * 1e9; };
  const auto slides = [](const TracedPass& p) {
    return static_cast<double>(p.loop.slides + 1);  // + the end-of-stream flush
  };
  const auto share = [&](std::initializer_list<Layer> ls) {
    return med([&](const TracedPass& p) {
      double ns = 0;
      for (Layer l : ls) ns += self_ns(p, l);
      return ns / wall_ns(p);
    });
  };
  const TracedCounts& c = traced.back().counts;
  const double lines = static_cast<double>(c.lines);
  const double tuples = static_cast<double>(std::max<size_t>(1, c.tuples));
  double skew = 1.0;
  if (!c.shard_tuples.empty()) {
    size_t total = 0, largest = 0;
    for (size_t t : c.shard_tuples) {
      total += t;
      largest = std::max(largest, t);
    }
    skew = total == 0 ? 1.0
                      : static_cast<double>(largest) * c.shard_tuples.size() /
                            static_cast<double>(total);
  }
  std::vector<double> plain_busy, traced_busy;
  for (const PassResult& p : plain) plain_busy.push_back(Busy(p.loop));
  for (const TracedPass& p : traced) traced_busy.push_back(Busy(p.loop));
  const double checkpoints =
      static_cast<double>(std::max<size_t>(1, c.checkpoints));
  const double n_slides = slides(traced.back());

  const std::vector<Metric> metrics = {
      {"ais.ns_per_line", med([&](const TracedPass& p) {
         return self_ns(p, kAis) / lines;
       }), "ns"},
      {"ais.allocs_per_line", allocs(traced.back(), kAis) / lines, "allocs"},
      {"ais.accept_ratio", static_cast<double>(c.scanner.accepted) / lines,
       "share"},
      {"ais.busy_share", share({kAis}), "share"},
      {"ais.lag_ms_p95", med([&](const TracedPass& p) {
         return Quantile(p.loop.line_lag_ms, 0.95);
       }), "ms"},
      {"tracker.ns_per_tuple", med([&](const TracedPass& p) {
         return self_ns(p, kTracker) / tuples;
       }), "ns"},
      {"tracker.allocs_per_tuple", allocs(traced.back(), kTracker) / tuples,
       "allocs"},
      {"tracker.cp_ratio", static_cast<double>(c.critical_points) / tuples,
       "share"},
      {"tracker.busy_share", share({kTracker}), "share"},
      {"tracker.resident_vessels", static_cast<double>(c.resident_vessels),
       "count"},
      {"tracker.shard_tuple_skew", skew, "ratio"},
      {"recog.stage_us_per_slide", med([&](const TracedPass& p) {
         return self_ns(p, kRecogStage) / 1e3 / slides(p);
       }), "us"},
      {"recog.feed_us_per_slide", med([&](const TracedPass& p) {
         return self_ns(p, kRecogFeed) / 1e3 / slides(p);
       }), "us"},
      {"recog.recognize_us_per_slide", med([&](const TracedPass& p) {
         return self_ns(p, kRecogRecognize) / 1e3 / slides(p);
       }), "us"},
      {"recog.allocs_per_slide",
       (allocs(traced.back(), kRecogStage) + allocs(traced.back(), kRecogFeed) +
        allocs(traced.back(), kRecogRecognize)) /
           n_slides,
       "allocs"},
      {"recog.input_facts_per_slide",
       static_cast<double>(c.input_facts) / n_slides, "count"},
      {"recog.ces_per_slide", static_cast<double>(c.ces) / n_slides, "count"},
      {"recog.cache_hit_rate", c.cache_hit_rate, "share"},
      {"recog.busy_share", share({kRecogStage, kRecogFeed, kRecogRecognize}),
       "share"},
      {"archive.us_per_slide", med([&](const TracedPass& p) {
         return self_ns(p, kArchive) / 1e3 / slides(p);
       }), "us"},
      {"archive.points", static_cast<double>(c.archived_points), "count"},
      {"archive.trips", static_cast<double>(c.trips), "count"},
      {"archive.busy_share", share({kArchive}), "share"},
      {"alerts.us_per_slide", med([&](const TracedPass& p) {
         return self_ns(p, kAlerts) / 1e3 / slides(p);
       }), "us"},
      {"alerts.count", static_cast<double>(c.alerts), "count"},
      {"alerts.busy_share", share({kAlerts}), "share"},
      {"snapshot.ms_per_checkpoint", med([&](const TracedPass& p) {
         return self_ns(p, kSnapshot) / 1e6 /
                static_cast<double>(std::max<size_t>(1, p.counts.checkpoints));
       }), "ms"},
      {"snapshot.bytes",
       static_cast<double>(c.checkpoint_bytes) / checkpoints, "bytes"},
      {"snapshot.allocs_per_checkpoint",
       allocs(traced.back(), kSnapshot) / checkpoints, "allocs"},
      {"snapshot.busy_share", share({kSnapshot}), "share"},
      {"idle_share", med([](const TracedPass& p) {
         return p.loop.idle_s / p.loop.wall_s;
       }), "share"},
      {"trace.overhead_share",
       Median(traced_busy) / Median(plain_busy) - 1.0, "share"},
  };
  const std::vector<Metric> info = {
      {"slide.self_us_per_slide", med([&](const TracedPass& p) {
         return self_ns(p, kSlide) / 1e3 / slides(p);
       }), "us"},
      {"alloc_count_mismatches", static_cast<double>(alloc_mismatches),
       "count"},
      {"pooled_alloc_drift", static_cast<double>(pooled_drift), "allocs"},
      {"traced_passes", static_cast<double>(traced.size()), "count"},
      {"slides_per_pass", n_slides, "count"},
  };
  PrintResult(w.name, failed == 0 && alloc_mismatches == 0, attempted, failed,
              metrics, info);
  return 0;
}
