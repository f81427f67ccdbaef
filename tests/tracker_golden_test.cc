// Golden digests of the tracker's compressed critical-point stream. The
// constants below were recorded from the deque/unordered_map tracker that
// predates the flat-state layout (DESIGN.md §15); every later change to the
// per-tuple path must reproduce them bit for bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/generator.h"
#include "sim/world.h"
#include "snapshot/codec.h"
#include "stream/replayer.h"
#include "stream/sliding_window.h"
#include "tracker/sharded_tracker.h"

namespace maritime::tracker {
namespace {

class Fnv {
 public:
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ULL;
    }
  }
  template <typename T>
  void Value(T v) {
    Bytes(&v, sizeof(v));
  }
  void Point(const CriticalPoint& cp) {
    Value(cp.mmsi);
    Value(cp.pos.lon);
    Value(cp.pos.lat);
    Value(cp.tau);
    Value(cp.flags);
    Value(cp.speed_knots);
    Value(cp.heading_deg);
    Value(cp.duration);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

const std::vector<stream::PositionTuple>& Feed(uint64_t seed) {
  static std::vector<std::vector<stream::PositionTuple>> feeds(4);
  auto& f = feeds[seed % 4];
  if (f.empty()) {
    sim::World world = sim::BuildWorld(2024);
    sim::FleetConfig cfg;
    cfg.vessels = 80;
    cfg.duration = 12 * kHour;
    cfg.seed = seed;
    // More noise than the defaults, so the outlier-reset path runs too.
    cfg.outlier_prob = 0.01;
    f = sim::FleetSimulator(&world, cfg).Generate();
  }
  return f;
}

struct RunResult {
  uint64_t stream_digest = 0;
  uint64_t snapshot_digest = 0;  ///< Bytes of the mid-stream checkpoint.
  size_t points = 0;
};

/// Replays the feed slide by slide (1 h window, 10 min slide) through a
/// one-shard tracker and digests every compressed slide, the Finish tail and
/// the tracker counters. With `cut_at_slide` >= 0 the tracker is saved after
/// that slide and the rest of the stream runs on a restored copy.
RunResult Replay(uint64_t seed, int history, double turn_deg,
              int cut_at_slide = -1) {
  TrackerParams params;
  params.history_size = history;
  params.turn_threshold_deg = turn_deg;
  auto tracker = std::make_unique<ShardedMobilityTracker>(params, 1);
  const auto& tuples = Feed(seed);
  stream::StreamReplayer replayer(tuples);
  stream::QueryTimeSequence queries(stream::WindowSpec{kHour, 10 * kMinute},
                                    replayer.first_timestamp());
  const Timestamp last = replayer.last_timestamp();
  Fnv fnv;
  RunResult out;
  for (int slide = 0;; ++slide) {
    const Timestamp q = queries.Fire();
    for (const CriticalPoint& cp :
         tracker->ProcessSlide(replayer.NextBatch(q), q)) {
      fnv.Point(cp);
      ++out.points;
    }
    if (slide == cut_at_slide) {
      snapshot::Writer w;
      tracker->SaveTo(w);
      // Digest the per-vessel state only, so the digest does not depend on
      // the sharded envelope's format version.
      snapshot::Writer state;
      tracker->shard(0).SaveTo(state);
      Fnv snap;
      snap.Bytes(state.bytes().data(), state.bytes().size());
      out.snapshot_digest = snap.value();
      tracker = std::make_unique<ShardedMobilityTracker>(params, 1);
      snapshot::Reader r(w.bytes());
      EXPECT_TRUE(tracker->RestoreFrom(r).ok());
    }
    if (q >= last) break;
  }
  std::vector<CriticalPoint> tail;
  tracker->Finish(&tail);
  for (const CriticalPoint& cp : tail) fnv.Point(cp);
  out.points += tail.size();
  const TrackerStats s = tracker->stats();
  fnv.Value(s.processed);
  fnv.Value(s.accepted);
  fnv.Value(s.stale_discarded);
  fnv.Value(s.outliers_discarded);
  fnv.Value(s.outlier_resets);
  fnv.Value(s.critical_points);
  out.stream_digest = fnv.value();
  return out;
}

struct Golden {
  uint64_t seed;
  int history;
  double turn_deg;
  uint64_t digest;
  size_t points;
};

// seed × history_size × Δθ, recorded from the reference tracker.
constexpr Golden kGolden[] = {
    {11, 2, 5.0, 0x237937dfbcb721e6ULL, 2383},
    {11, 2, 15.0, 0x7cff710f28c93981ULL, 2095},
    {11, 10, 5.0, 0xb1c1d31548743cf6ULL, 1747},
    {11, 10, 15.0, 0xa6631156447d7c1fULL, 1225},
    {11, 50, 5.0, 0x8b146e6a01259c7fULL, 1772},
    {11, 50, 15.0, 0x656b78b970788f34ULL, 1093},
    {22, 2, 5.0, 0xd7edcc20f6da62ebULL, 2529},
    {22, 2, 15.0, 0x5fe2550bfae270a0ULL, 2202},
    {22, 10, 5.0, 0xedecd9fca53364d9ULL, 1891},
    {22, 10, 15.0, 0xb6d01251f91648fdULL, 1349},
    {22, 50, 5.0, 0xab88b9e396ff66edULL, 1893},
    {22, 50, 15.0, 0x34aa91325a446cc2ULL, 1182},
    {33, 2, 5.0, 0xd454602835a93826ULL, 2718},
    {33, 2, 15.0, 0xf3a3ededdee9fca3ULL, 2469},
    {33, 10, 5.0, 0x579e1e3a826c5cb0ULL, 1985},
    {33, 10, 15.0, 0x88c7dd5b5a164cc1ULL, 1520},
    {33, 50, 5.0, 0x2d8838a850eca6c7ULL, 2064},
    {33, 50, 15.0, 0x1fad04f32cf2e478ULL, 1367},
};

TEST(TrackerGoldenTest, CompressedStreamMatchesRecordedDigests) {
  for (const Golden& g : kGolden) {
    const RunResult r = Replay(g.seed, g.history, g.turn_deg);
    EXPECT_EQ(r.stream_digest, g.digest)
        << "seed " << g.seed << " m=" << g.history << " dtheta=" << g.turn_deg;
    EXPECT_EQ(r.points, g.points);
  }
}

// The checkpoint taken mid-stream keeps the v1 byte layout, and resuming
// from it reproduces the uninterrupted stream.
constexpr uint64_t kCutSnapshotDigest = 0x0414ae87e76b147dULL;

TEST(TrackerGoldenTest, SaveRestoreMidStreamMatchesRecordedDigests) {
  const RunResult r = Replay(22, 10, 5.0, /*cut_at_slide=*/20);
  EXPECT_EQ(r.snapshot_digest, kCutSnapshotDigest);
  EXPECT_EQ(r.stream_digest, kGolden[8].digest);
  EXPECT_EQ(r.points, kGolden[8].points);
}

}  // namespace
}  // namespace maritime::tracker
