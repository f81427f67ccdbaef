// The tentpole guarantee of pipelined slide execution: at any pipeline depth
// (slides staged ahead on the pool while the caller recognizes earlier
// slides) the pipeline produces bit-identical SlideReports and CE output to
// strict serial execution — including across a SaveSnapshot/Resume cut taken
// at a commit barrier mid-run.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "critical_digest.h"
#include "maritime/pipeline.h"
#include "sim/generator.h"
#include "sim/world.h"
#include "stream/replayer.h"

namespace maritime {
namespace {

using surveillance::EngineMode;
using surveillance::PipelineConfig;
using surveillance::SlideReport;
using surveillance::SurveillancePipeline;

sim::WorldParams SmallWorldParams() {
  sim::WorldParams p;
  p.ports = 8;
  p.protected_areas = 3;
  p.forbidden_fishing_areas = 3;
  p.shallow_areas = 2;
  return p;
}

/// Everything deterministic in a SlideReport (timing fields excluded).
struct Observed {
  Timestamp query_time = 0;
  size_t raw_positions = 0;
  uint64_t criticals_digest = 0;  ///< CriticalsDigest of the report's points.
  std::vector<rtec::RecognitionResult> recognition;
  bool final_flush = false;
};

Observed Capture(const SlideReport& r) {
  Observed o;
  o.query_time = r.query_time;
  o.raw_positions = r.raw_positions;
  o.criticals_digest = CriticalsDigest(r.criticals);
  o.recognition = r.recognition;
  o.final_flush = r.final_flush;
  return o;
}

void ExpectIdentical(const std::vector<Observed>& expected,
                     const std::vector<Observed>& actual,
                     const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(label + ", slide " + std::to_string(i));
    EXPECT_EQ(expected[i].query_time, actual[i].query_time);
    EXPECT_EQ(expected[i].raw_positions, actual[i].raw_positions);
    EXPECT_EQ(expected[i].criticals_digest, actual[i].criticals_digest);
    EXPECT_EQ(expected[i].final_flush, actual[i].final_flush);
    ASSERT_EQ(expected[i].recognition.size(), actual[i].recognition.size());
    for (size_t p = 0; p < expected[i].recognition.size(); ++p) {
      EXPECT_TRUE(expected[i].recognition[p] == actual[i].recognition[p])
          << "partition " << p << " diverged at q=" << expected[i].query_time;
    }
  }
}

class PipelinedDifferentialTest : public ::testing::Test {
 protected:
  std::vector<stream::PositionTuple> MakeStream(sim::World* world) {
    sim::FleetConfig fleet_cfg;
    fleet_cfg.vessels = 12;
    fleet_cfg.duration = 4 * kHour;
    fleet_cfg.seed = 23;
    sim::FleetSimulator fleet(world, fleet_cfg);
    return fleet.Generate();
  }

  std::vector<Observed> RunWhole(const sim::World& world,
                                 const std::vector<stream::PositionTuple>& in,
                                 PipelineConfig cfg) {
    stream::StreamReplayer replayer(in);
    SurveillancePipeline pipeline(&world.knowledge, cfg);
    std::vector<Observed> out;
    pipeline.Run(replayer,
                 [&](const SlideReport& r) { out.push_back(Capture(r)); });
    return out;
  }

  /// Depths 1/2/3 against the serial reference, for one base config.
  void RunDepthDifferential(PipelineConfig cfg) {
    sim::World world = sim::BuildWorld(/*seed=*/17, SmallWorldParams());
    const std::vector<stream::PositionTuple> tuples = MakeStream(&world);
    ASSERT_FALSE(tuples.empty());

    cfg.pipeline_depth = 1;
    const std::vector<Observed> reference = RunWhole(world, tuples, cfg);
    ASSERT_GE(reference.size(), 8u)
        << "stream too short for a meaningful differential";

    for (int depth : {2, 3}) {
      cfg.pipeline_depth = depth;
      const std::vector<Observed> pipelined = RunWhole(world, tuples, cfg);
      ExpectIdentical(reference, pipelined,
                      "pipeline depth " + std::to_string(depth));
    }
  }
};

TEST_F(PipelinedDifferentialTest, DepthsBitIdenticalNaive) {
  PipelineConfig cfg;
  cfg.window = stream::WindowSpec{kHour, 10 * kMinute};
  cfg.partitions = 1;
  cfg.archive = true;
  RunDepthDifferential(cfg);
}

TEST_F(PipelinedDifferentialTest, DepthsBitIdenticalShardedIncremental) {
  PipelineConfig cfg;
  cfg.window = stream::WindowSpec{kHour, 10 * kMinute};
  cfg.partitions = 2;
  cfg.tracker_shards = 4;
  cfg.archive = true;
  cfg.incremental_recognition = true;
  cfg.parallel_recognition_keys = true;
  RunDepthDifferential(cfg);
}

TEST_F(PipelinedDifferentialTest, DepthsBitIdenticalAutoEngine) {
  // The auto engine (window-shape resolution + adaptive full regeneration)
  // must not perturb CE output either; the serial reference here runs auto
  // too, and a second serial run with the legacy naive flag pins the
  // auto-vs-naive equivalence end to end.
  PipelineConfig cfg;
  cfg.window = stream::WindowSpec{kHour, 10 * kMinute};
  cfg.partitions = 1;
  cfg.archive = true;
  cfg.recognition_engine = EngineMode::kAuto;
  RunDepthDifferential(cfg);

  sim::World world = sim::BuildWorld(/*seed=*/17, SmallWorldParams());
  const std::vector<stream::PositionTuple> tuples = MakeStream(&world);
  cfg.pipeline_depth = 1;
  const std::vector<Observed> auto_run = RunWhole(world, tuples, cfg);
  PipelineConfig naive = cfg;
  naive.recognition_engine = EngineMode::kNaive;
  const std::vector<Observed> naive_run = RunWhole(world, tuples, naive);
  ExpectIdentical(naive_run, auto_run, "auto vs naive");
}

TEST_F(PipelinedDifferentialTest, StageCommitInterfaceKeepsSlideOrder) {
  // Driving the pipeline by hand through StageSlide/CommitNextSlide — and
  // mixing in RunSlide, which must drain staged slides first — matches Run.
  sim::World world = sim::BuildWorld(/*seed=*/17, SmallWorldParams());
  const std::vector<stream::PositionTuple> tuples = MakeStream(&world);

  PipelineConfig cfg;
  cfg.window = stream::WindowSpec{kHour, 10 * kMinute};
  cfg.tracker_shards = 2;
  cfg.pipeline_depth = 3;
  const std::vector<Observed> reference = [&] {
    PipelineConfig serial = cfg;
    serial.pipeline_depth = 1;
    return RunWhole(world, tuples, serial);
  }();

  stream::StreamReplayer replayer(tuples);
  SurveillancePipeline pipeline(&world.knowledge, cfg);
  stream::QueryTimeSequence queries(cfg.window, replayer.first_timestamp());
  const Timestamp last = replayer.last_timestamp();
  std::vector<Observed> manual;
  int slide = 0;
  while (true) {
    const Timestamp q = queries.Fire();
    const auto batch = replayer.NextBatch(q);
    if (slide % 3 == 2) {
      // RunSlide interleaved: must first commit the staged backlog.
      std::vector<Observed> drained;
      pipeline.DrainStagedSlides(
          [&](const SlideReport& r) { drained.push_back(Capture(r)); });
      for (const Observed& o : drained) manual.push_back(o);
      EXPECT_EQ(pipeline.staged_slide_count(), 0u);
      manual.push_back(Capture(pipeline.RunSlide(q, batch)));
    } else {
      pipeline.StageSlide(q, batch);
      while (pipeline.staged_slide_count() >= 2) {
        manual.push_back(Capture(pipeline.CommitNextSlide()));
      }
    }
    ++slide;
    if (q >= last) break;
  }
  pipeline.DrainStagedSlides(
      [&](const SlideReport& r) { manual.push_back(Capture(r)); });
  const SlideReport flush = pipeline.Finish();
  if (!flush.recognition.empty()) manual.push_back(Capture(flush));
  ExpectIdentical(reference, manual, "manual stage/commit drive");
}

TEST_F(PipelinedDifferentialTest, SnapshotResumeAtCommitBarrierMidRun) {
  // Pipelined run cut at a commit barrier: drain the staged slides, save a
  // snapshot to disk, restore into a fresh pipeline, and Resume (itself
  // pipelined). The post-cut output must be bit-identical to the
  // uninterrupted serial reference.
  sim::World world = sim::BuildWorld(/*seed=*/17, SmallWorldParams());
  const std::vector<stream::PositionTuple> tuples = MakeStream(&world);

  PipelineConfig cfg;
  cfg.window = stream::WindowSpec{kHour, 10 * kMinute};
  cfg.partitions = 2;
  cfg.tracker_shards = 2;
  cfg.archive = true;
  cfg.incremental_recognition = true;
  cfg.pipeline_depth = 3;

  const std::vector<Observed> reference = [&] {
    PipelineConfig serial = cfg;
    serial.pipeline_depth = 1;
    return RunWhole(world, tuples, serial);
  }();
  constexpr int kCut = 5;
  ASSERT_GE(reference.size(), static_cast<size_t>(kCut) + 2);

  const std::string path =
      ::testing::TempDir() + "/pipelined_cut_snapshot.msnp";
  {
    stream::StreamReplayer replayer(tuples);
    SurveillancePipeline victim(&world.knowledge, cfg);
    stream::QueryTimeSequence queries(cfg.window, replayer.first_timestamp());
    int committed = 0;
    while (committed < kCut) {
      const Timestamp q = queries.Fire();
      victim.StageSlide(q, replayer.NextBatch(q));
      while (victim.staged_slide_count() >=
             static_cast<size_t>(cfg.pipeline_depth)) {
        victim.CommitNextSlide();
        ++committed;
      }
    }
    // The commit barrier: every staged slide lands before the snapshot.
    victim.DrainStagedSlides();
    // The victim may have committed past kCut while draining; recompute the
    // true cut from its last query time below via the reference timeline.
    ASSERT_EQ(victim.staged_slide_count(), 0u);
    ASSERT_TRUE(victim.SaveSnapshot(path).ok());
  }

  SurveillancePipeline recovered(&world.knowledge, cfg);
  ASSERT_TRUE(recovered.LoadSnapshot(path).ok());
  stream::StreamReplayer resumed_stream(tuples);
  std::vector<Observed> post;
  recovered.Resume(resumed_stream,
                   [&](const SlideReport& r) { post.push_back(Capture(r)); });
  std::remove(path.c_str());

  ASSERT_FALSE(post.empty());
  // Align on query time: the resumed output must equal the reference suffix
  // starting right after the snapshot's last committed slide.
  size_t start = 0;
  while (start < reference.size() &&
         reference[start].query_time != post.front().query_time) {
    ++start;
  }
  ASSERT_LT(start, reference.size()) << "resume start not in reference";
  const std::vector<Observed> expected(
      reference.begin() + static_cast<ptrdiff_t>(start), reference.end());
  ExpectIdentical(expected, post, "post-snapshot resume");
}

}  // namespace
}  // namespace maritime
