#ifndef MARITIME_MARITIME_PIPELINE_H_
#define MARITIME_MARITIME_PIPELINE_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "maritime/knowledge.h"
#include "maritime/recognizer.h"
#include "mod/hermes.h"
#include "stream/replayer.h"
#include "stream/sliding_window.h"
#include "tracker/sharded_tracker.h"

namespace maritime::surveillance {

/// End-to-end configuration of the surveillance system (Figure 1).
struct PipelineConfig {
  /// Sliding window (range ω, slide β) shared by online tracking and CE
  /// recognition.
  stream::WindowSpec window{kHour, 10 * kMinute};
  tracker::TrackerParams tracker;
  CeOptions ce;
  /// Number of CE-recognition partitions (1 = single processor; 2
  /// reproduces the paper's distributed setting).
  int partitions = 1;
  /// Number of MMSI-hashed mobility-tracker shards processed concurrently
  /// on the shared thread pool. 1 reproduces the serial tracker bit for
  /// bit; any shard count yields the identical critical-point sequence.
  int tracker_shards = 1;
  /// Enable the offline archival path (staging → reconstruction → loading
  /// into the trajectory store).
  bool archive = true;
  /// Incremental RTEC evaluation (dirty-key caching across slides); results
  /// are bit-identical to full recomputation.
  bool incremental_recognition = false;
  /// Engine selection override (kFromFlag = honor incremental_recognition;
  /// kAuto picks per window shape and observed dirty fraction). Passed
  /// through to RecognizerConfig::engine.
  EngineMode recognition_engine = EngineMode::kFromFlag;
  /// Fan the keys of one definition layer out over the pipeline's thread
  /// pool (`pool`; incremental engine only).
  bool parallel_recognition_keys = false;
  /// Phase-pipelined slide execution: with depth d >= 2, up to d - 1 slides
  /// are staged ahead — their tracker shards run and their spatial facts
  /// precompute on the pool while the caller recognizes an earlier slide.
  /// Depth 1 is strict serial execution. Output (reports, CEs, snapshots)
  /// is bit-identical at any depth: every shared-state mutation happens at
  /// the commit barrier, in slide order, on the caller.
  int pipeline_depth = 1;
  /// Thread pool for tracker shards, partition recognition, parallel key
  /// evaluation and staged slides: every parallel stage of the pipeline runs
  /// on this one pool. nullptr (default) uses the process-wide shared pool;
  /// benches inject local pools to sweep worker counts in one process. Must
  /// outlive the pipeline.
  common::ThreadPool* pool = nullptr;
};

/// What happened during one window slide.
struct SlideReport {
  Timestamp query_time = 0;
  size_t raw_positions = 0;  ///< Fresh positions consumed this slide.
  /// Critical points the tracker emitted this slide (for Finish(), the
  /// tracker's tail), in stream order: the slide's own points, handed over
  /// without a copy. The pipeline keeps no log of them.
  std::vector<tracker::CriticalPoint> criticals;
  /// Recognition output, one entry per partition.
  std::vector<rtec::RecognitionResult> recognition;
  double tracking_seconds = 0.0;
  double recognition_seconds = 0.0;
  /// Per-tracker-shard wall time and volume for this slide (size =
  /// config.tracker_shards).
  std::vector<tracker::ShardSlideStats> shard_stats;
  /// True for the synthetic report Finish() produces when flushing the
  /// tracker tail at end of stream.
  bool final_flush = false;
};

/// Inspectable summary at the head of every pipeline snapshot: the config
/// fingerprint the restore will be checked against, where the run stood, and
/// rough size indicators. Readable without a KnowledgeBase (see
/// ReadSnapshotManifest), so a checkpoint CLI can describe a snapshot file
/// cheaply.
struct SnapshotManifest {
  Timestamp last_query = kInvalidTimestamp;
  stream::WindowSpec window{0, 0};
  int32_t partitions = 0;
  int32_t tracker_shards = 0;
  bool archive = false;
  bool incremental_recognition = false;
  uint64_t window_critical_points = 0;  ///< Awaiting archival.
  uint64_t archived_trips = 0;          ///< In the trajectory store.
};

/// Decodes only the manifest section of a snapshot payload (the bytes after
/// the file header, i.e. what DecodeSnapshotFile returns).
Result<SnapshotManifest> ReadSnapshotManifest(std::string_view payload);

/// The complete processing scheme of Figure 1: Data-Scanner output (a
/// positional stream) flows through the Mobility Tracker and Compressor into
/// critical points, which feed both the Complex Event Recognition module and
/// (lagged by ω, so online and offline state never overlap) the offline
/// archival path into the trajectory store.
class SurveillancePipeline {
 public:
  /// `kb` must outlive the pipeline.
  SurveillancePipeline(const KnowledgeBase* kb, PipelineConfig config);
  /// Waits for any staging task still in flight (it captures this object);
  /// staged-but-uncommitted slides are discarded, not committed.
  ~SurveillancePipeline();

  /// Processes the fresh positions of the slide ending at query time `q`
  /// (their tau must be <= q), then recognizes CEs at `q`. Commits any
  /// slides still staged ahead first, so interleaving RunSlide with
  /// StageSlide keeps slide order.
  SlideReport RunSlide(Timestamp q,
                       std::span<const stream::PositionTuple> batch);

  // --- pipelined execution -------------------------------------------------
  /// Stages the slide ending at `q`: copies the batch and runs tracking plus
  /// spatial-fact staging asynchronously on the pool (inline when
  /// pipeline_depth <= 1 or the pool has no workers). Staging is
  /// strictly sequential across slides — the tracker is stateful — so this
  /// waits for the previous staged slide's tracking before dispatching.
  /// Call CommitNextSlide() to turn the oldest staged slide into a report.
  void StageSlide(Timestamp q, std::span<const stream::PositionTuple> batch);

  /// Commits the oldest staged slide (blocking until its staging task is
  /// done): feeds the recognizer, recognizes, and archives on the calling
  /// thread, in slide order — the commit barrier that makes pipelined
  /// output bit-identical to serial. Precondition: staged_slide_count() > 0.
  SlideReport CommitNextSlide();

  /// Slides staged but not yet committed.
  size_t staged_slide_count() const { return staged_.size(); }

  /// Commits every staged slide, invoking `on_slide` per report. A no-op
  /// when nothing is staged. Snapshots (SaveTo / SaveSnapshot) may only be
  /// taken at this barrier — with slides in flight the tracker state is
  /// ahead of the recognizer's.
  void DrainStagedSlides(
      const std::function<void(const SlideReport&)>& on_slide = nullptr);

  /// Replays an entire recorded stream, sliding the window in step with the
  /// reported timestamps; invokes `on_slide` (if set) after every slide and
  /// once more for the end-of-stream flush when it produced recognition.
  void Run(stream::StreamReplayer& replayer,
           const std::function<void(const SlideReport&)>& on_slide = nullptr);

  /// Closes open episodes, feeds the tracker's tail critical points to the
  /// recognizer, runs one final recognition past the last query time (so
  /// complex events completing in the last partial window are not dropped),
  /// and archives everything still pending. Returns what the flush did.
  SlideReport Finish();

  const tracker::ShardedMobilityTracker& mobility_tracker() const {
    return tracker_;
  }
  /// Compression counters aggregated over all tracker shards.
  tracker::CompressionStats compression_stats() const {
    return tracker_.compression_stats();
  }
  PartitionedRecognizer& recognizer() { return *recognizer_; }
  const mod::HermesArchiver* archiver() const { return archiver_.get(); }
  const PipelineConfig& config() const { return config_; }

  // --- checkpointing -------------------------------------------------------
  /// Serializes the full pipeline state at a slide boundary (call only
  /// between RunSlide calls, never mid-slide): manifest, tracker shards, the
  /// recognizer partitions with their RTEC engines, the window of critical
  /// points awaiting archival, and the archival path. A pipeline restored
  /// from this state produces bit-identical SlideReports for every
  /// subsequent slide.
  void SaveTo(snapshot::Writer& w) const;
  /// Restores into a pipeline built with the same KnowledgeBase and an
  /// equivalent PipelineConfig (window, partitions, tracker shards, archive
  /// and incremental flags are verified — InvalidArgument on mismatch;
  /// malformed input yields Corruption and newer formats Unimplemented).
  Status RestoreFrom(snapshot::Reader& r);

  /// Writes the state to `path` as a checksummed snapshot file.
  Status SaveSnapshot(const std::string& path) const;
  /// Restores from a snapshot file written by SaveSnapshot.
  Status LoadSnapshot(const std::string& path);

  /// Continues a replay from the restored position: skips the stream prefix
  /// already consumed before the snapshot (tuples at or before the saved
  /// query time) and processes the remaining slides exactly as Run would
  /// have. On a pipeline that has not restored (or run) anything, this is
  /// identical to Run.
  void Resume(stream::StreamReplayer& replayer,
              const std::function<void(const SlideReport&)>& on_slide =
                  nullptr);

 private:
  /// One staged-but-uncommitted slide. The staging task (pool) fills the
  /// outputs and flips `ready`; the commit barrier (caller) consumes them.
  /// The mu/cv handshake is the happens-before edge between the two.
  struct StagedSlide {
    Timestamp q = kInvalidTimestamp;
    std::vector<stream::PositionTuple> batch;  ///< Owned copy of the input.
    // --- staging outputs, written by the staging task ---
    std::vector<tracker::CriticalPoint> criticals;
    PartitionedRecognizer::StagedFeed staged_feed;
    std::vector<tracker::ShardSlideStats> shard_stats;
    double tracking_seconds = 0.0;
    // --- completion handshake ---
    std::mutex mu;
    std::condition_variable cv;
    bool ready MARITIME_GUARDED_BY(mu) = false;
  };

  void ArchiveEvicted(Timestamp q);
  /// Runs one staged slide's tracking + staging phase (on the pool or
  /// inline) and signals completion.
  void RunStaging(StagedSlide* slide);
  /// Blocks until `slide`'s staging task has finished.
  static void WaitStaged(StagedSlide* slide);
  /// The shared replay loop of Run and Resume: fire query times, stage each
  /// batch, commit once the pipeline is full, drain, flush.
  void DriveLoop(stream::StreamReplayer& replayer,
                 stream::QueryTimeSequence& queries, Timestamp last,
                 const std::function<void(const SlideReport&)>& on_slide);

  const KnowledgeBase* kb_;
  PipelineConfig config_;
  common::ThreadPool* pool_;  ///< config_.pool or the shared pool.
  tracker::ShardedMobilityTracker tracker_;
  std::unique_ptr<PartitionedRecognizer> recognizer_;
  std::unique_ptr<mod::HermesArchiver> archiver_;
  Timestamp last_query_ = kInvalidTimestamp;
  /// Critical points not yet evicted from the window, awaiting archival.
  /// Always empty without an archiver: nothing would ever drain it.
  std::deque<tracker::CriticalPoint> window_criticals_;
  /// Slides staged ahead, oldest first. Mutated only by the owner thread;
  /// the elements' staging outputs are handed over via each slide's
  /// ready-flag handshake.
  std::deque<std::unique_ptr<StagedSlide>> staged_;
};

}  // namespace maritime::surveillance

#endif  // MARITIME_MARITIME_PIPELINE_H_
