#ifndef MARITIME_MARITIME_RECOGNIZER_H_
#define MARITIME_MARITIME_RECOGNIZER_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "maritime/ce_definitions.h"
#include "maritime/knowledge.h"
#include "maritime/me_stream.h"
#include "rtec/engine.h"
#include "stream/sliding_window.h"
#include "tracker/critical_point.h"

namespace maritime::surveillance {

/// Evaluation-engine selection for RecognizerConfig::engine. Every mode
/// produces bit-identical CE output; they differ only in cost.
enum class EngineMode {
  /// Honor the legacy `incremental` flag (default; keeps old call sites and
  /// serialized configs meaning what they always meant).
  kFromFlag = 0,
  kNaive,
  kIncremental,
  /// Decide from the window shape at construction — incremental pays only
  /// when the window outlives the slide (chosen when ω >= 3β;
  /// BENCH_rtec.json shows incremental at 0.647x naive at ω = β but 4.2x
  /// at ω = 6β) — and from the observed dirty fraction at each query: a
  /// step whose dirty suffix covers most of the window escalates to one
  /// full regeneration (EngineOptions::adaptive_full_regen).
  kAuto,
};

/// Configuration of the CE recognition module.
struct RecognizerConfig {
  stream::WindowSpec window{kHour, kHour};  ///< RTEC working memory ω / slide.
  CeOptions ce;
  /// Incremental RTEC evaluation: cache per-(definition, key) evidence
  /// across window slides and re-run rules only for dirty window regions.
  /// Results are bit-identical to the naive engine.
  bool incremental = false;
  /// Engine selection; anything but kFromFlag overrides `incremental`. The
  /// choice is resolved deterministically at construction (it depends only
  /// on this config), so snapshot save/restore pairs agree on the mode.
  EngineMode engine = EngineMode::kFromFlag;
  /// Evaluate the keys of one definition layer in parallel on the
  /// recognizer's thread pool — the one passed to the CERecognizer or
  /// PartitionedRecognizer constructor, else the process-wide shared pool
  /// (incremental engine only; merge order is deterministic).
  bool parallel_keys = false;
  /// Layers smaller than this stay serial when parallel_keys is set.
  size_t min_parallel_keys = 8;
  /// Dependency-scoped dirty propagation for the area-keyed CE definitions
  /// (incremental engine only; see rtec::EngineOptions::scoped_dirty). On by
  /// default; turning it off restores the fleet-wide regen floor — output is
  /// bit-identical either way.
  bool scoped_dirty = true;
};

/// The Complex Event Recognition module of Figure 1: wraps an RTEC engine
/// loaded with the maritime CE definitions, converts incoming critical
/// points into ME assertions (plus precomputed spatial facts in the
/// Figure 11(b) mode), and recognizes CEs at each query time.
class CERecognizer {
 public:
  /// `kb` must outlive the recognizer. `pool` runs the parallel key
  /// evaluation of `config.parallel_keys` (nullptr = the process-wide shared
  /// pool; unused otherwise) and must outlive the recognizer.
  CERecognizer(const KnowledgeBase* kb, RecognizerConfig config,
               common::ThreadPool* pool = nullptr);

  CERecognizer(const CERecognizer&) = delete;
  CERecognizer& operator=(const CERecognizer&) = delete;

  /// Feeds one critical point (possibly delayed) into the working memory:
  /// Feed of a one-element span.
  void Feed(const tracker::CriticalPoint& cp);

  /// Batched feed, Feed(Stage(cps)): in the Figure 11(b) mode the spatial
  /// facts for the whole run are computed by one
  /// KnowledgeBase::AreasCloseToAll call sharing a locality cache.
  void Feed(std::span<const tracker::CriticalPoint> cps);

  /// One slide's precomputed input: the critical points plus the spatial
  /// facts the batched Feed would compute for them (empty outside the
  /// spatial-facts mode). Produced by Stage(), consumed by Feed(&&).
  struct StagedPoints {
    std::vector<tracker::CriticalPoint> cps;
    std::vector<std::vector<int32_t>> close;  ///< Parallel to `cps`.
  };

  /// Pure staging half of Feed(span): computes the spatial facts but
  /// mutates nothing, so the pipelined driver may run it on a pool thread
  /// while a *previous* slide's Recognize runs on this recognizer (the
  /// KnowledgeBase locality cache is thread-local; engine and fact table
  /// are untouched).
  StagedPoints Stage(std::span<const tracker::CriticalPoint> cps) const;

  /// Commit half: asserts the staged points' MEs and spatial facts. Must
  /// run on the owner thread (the commit barrier).
  void Feed(StagedPoints&& staged);

  /// Runs recognition at query time `q`.
  rtec::RecognitionResult Recognize(Timestamp q);

  const MaritimeSchema& schema() const { return schema_; }
  rtec::Engine& engine() { return *engine_; }
  const rtec::Engine& engine() const { return *engine_; }
  const KnowledgeBase& knowledge() const { return *kb_; }

  /// Renders a recognized CE in a log-friendly form, e.g.
  /// "illegalShipping(area=12, vessel=205) @ 3600" or
  /// "suspicious(area=3)=true (7200,9000]".
  std::string Describe(const rtec::RecognizedEvent& e) const;
  std::string Describe(const rtec::RecognizedFluent& f) const;

  // --- checkpointing -------------------------------------------------------
  /// Serializes the recognizer's cross-slide state: the spatial-fact table
  /// and the full RTEC engine state (see rtec::Engine::SaveTo). Call between
  /// slides.
  void SaveTo(snapshot::Writer& w) const;
  /// Restores into a recognizer built with the same knowledge base and
  /// config; the engine's schema fingerprint guards against mismatches.
  Status RestoreFrom(snapshot::Reader& r);

 private:
  const KnowledgeBase* kb_;
  RecognizerConfig config_;
  SpatialFactTable facts_;
  std::unique_ptr<rtec::Engine> engine_;
  MaritimeSchema schema_;
};

/// Distributed CE recognition (paper Section 5.2): the monitored region is
/// split into longitude bands; each partition gets its own RTEC engine with
/// only the areas located in its band, input MEs are routed by vessel
/// location, and the partitions recognize in parallel on the shared thread
/// pool (long-lived workers, not per-call threads).
class PartitionedRecognizer {
 public:
  /// Splits `kb`'s areas into `partitions` longitude bands of roughly equal
  /// area count. `partitions` >= 1. `pool` runs the partitions and, with
  /// `config.parallel_keys`, each partition's key evaluation; it defaults to
  /// the process-wide shared pool and must outlive the recognizer.
  PartitionedRecognizer(const KnowledgeBase& kb, RecognizerConfig config,
                        int partitions, common::ThreadPool* pool = nullptr);

  /// Routes a critical point to the partition covering its position: Feed
  /// of a one-element span.
  void Feed(const tracker::CriticalPoint& cp);

  /// Routes a run of critical points (order preserved per partition) and
  /// feeds every partition its slice: Feed(Stage(cps)).
  void Feed(std::span<const tracker::CriticalPoint> cps);

  /// One slide's precomputed input across all partitions (routing plus each
  /// partition's staged spatial facts).
  struct StagedFeed {
    std::vector<CERecognizer::StagedPoints> parts;  ///< One per partition.
  };

  /// Pure staging half of Feed(span): routes and precomputes without
  /// mutating any partition; safe on a pool thread concurrent with a
  /// previous slide's Recognize (see CERecognizer::Stage).
  StagedFeed Stage(std::span<const tracker::CriticalPoint> cps) const;

  /// Commit half: feeds each partition its staged slice. Owner thread only.
  void Feed(StagedFeed&& staged);

  /// Recognizes on all partitions in parallel; returns one result per
  /// partition.
  std::vector<rtec::RecognitionResult> Recognize(Timestamp q);

  /// The partitions' engine counters, summed at call time.
  struct RecognizeTotals {
    size_t cache_hits = 0;        ///< Incremental-engine key reuses.
    size_t cache_misses = 0;      ///< Keys whose rules were (re-)run.
    /// Dependency-scoped dirty propagation telemetry (DESIGN.md §14): regen
    /// spans narrowed below the fleet floor, and cross-key regions that fell
    /// back to the fleet-wide `DirtyMap::any` floor.
    size_t spans_narrowed = 0;
    size_t fleet_floor_hits = 0;
    // Slide-arena allocation telemetry, summed over the partitions' engines
    // (see rtec::EngineAllocStats and DESIGN.md §10).
    uint64_t arena_bytes = 0;      ///< Arena bytes bumped, all slides.
    uint64_t arena_chunks = 0;     ///< Arena chunks currently reserved.
    uint64_t fallback_allocs = 0;  ///< Large-object heap fallbacks, ever.
  };
  RecognizeTotals totals() const;

  int partition_count() const { return static_cast<int>(parts_.size()); }
  CERecognizer& partition(int i) { return *parts_[static_cast<size_t>(i)].rec; }

  // --- checkpointing -------------------------------------------------------
  /// Serializes every partition (band bound + recognizer state). Call
  /// between slides, never during Recognize.
  void SaveTo(snapshot::Writer& w) const;
  /// Restores into a recognizer partitioned the same way over the same
  /// knowledge base (partition count and band bounds are verified;
  /// InvalidArgument on mismatch).
  Status RestoreFrom(snapshot::Reader& r);

 private:
  struct Partition {
    double min_lon;  ///< Inclusive lower bound of the band.
    std::unique_ptr<KnowledgeBase> kb;
    std::unique_ptr<CERecognizer> rec;
  };
  size_t PartitionFor(const geo::GeoPoint& p) const;
  common::ThreadPool* pool_;
  std::vector<Partition> parts_;  // sorted by min_lon ascending
};

}  // namespace maritime::surveillance

#endif  // MARITIME_MARITIME_RECOGNIZER_H_
