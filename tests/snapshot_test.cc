#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "maritime/live_index.h"
#include "maritime/me_stream.h"
#include "maritime/pipeline.h"
#include "mod/hermes.h"
#include "mod/store.h"
#include "rtec/engine.h"
#include "sim/generator.h"
#include "sim/world.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "stream/replayer.h"
#include "tracker/sharded_tracker.h"
#include "tracker/snapshot_io.h"

namespace maritime {
namespace {

using surveillance::LiveVesselIndex;
using surveillance::PipelineConfig;
using surveillance::SpatialFactTable;
using surveillance::SurveillancePipeline;

// --- codec ------------------------------------------------------------------

TEST(SnapshotCodecTest, PrimitiveRoundTrip) {
  snapshot::Writer w;
  w.U8(0xAB);
  w.Bool(true);
  w.Bool(false);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.I32(-42);
  w.I64(INT64_MIN);
  w.F64(3.25);
  w.Str("hello");
  w.Str("");

  snapshot::Reader r(w.bytes());
  uint8_t u8 = 0;
  bool b1 = false, b2 = true;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int32_t i32 = 0;
  int64_t i64 = 0;
  double f64 = 0.0;
  std::string s1, s2;
  EXPECT_TRUE(r.U8(&u8));
  EXPECT_TRUE(r.Bool(&b1));
  EXPECT_TRUE(r.Bool(&b2));
  EXPECT_TRUE(r.U32(&u32));
  EXPECT_TRUE(r.U64(&u64));
  EXPECT_TRUE(r.I32(&i32));
  EXPECT_TRUE(r.I64(&i64));
  EXPECT_TRUE(r.F64(&f64));
  EXPECT_TRUE(r.Str(&s1));
  EXPECT_TRUE(r.Str(&s2));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_TRUE(b1);
  EXPECT_FALSE(b2);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i32, -42);
  EXPECT_EQ(i64, INT64_MIN);
  EXPECT_EQ(f64, 3.25);
  EXPECT_EQ(s1, "hello");
  EXPECT_EQ(s2, "");
}

TEST(SnapshotCodecTest, TruncationLatchesFailure) {
  snapshot::Writer w;
  w.U32(7);
  snapshot::Reader r(std::string_view(w.bytes()).substr(0, 2));
  uint32_t v = 0;
  EXPECT_FALSE(r.U32(&v));
  EXPECT_TRUE(r.failed());
  uint8_t b = 0;
  EXPECT_FALSE(r.U8(&b)) << "failure latched: later reads keep failing";
}

TEST(SnapshotCodecTest, HostileCountRejectedBeforeAllocation) {
  snapshot::Writer w;
  w.U64(UINT64_MAX);  // claims ~2^64 elements with no bytes behind it
  snapshot::Reader r(w.bytes());
  uint64_t n = 0;
  EXPECT_FALSE(r.Count(&n, 8));
  EXPECT_TRUE(r.failed());
}

TEST(SnapshotCodecTest, SectionFraming) {
  snapshot::Writer w;
  const size_t s = w.BeginSection(0x31545354u, 2);  // "TST1"
  w.U32(99);
  w.EndSection(s);

  snapshot::Reader r(w.bytes());
  uint8_t version = 0;
  size_t end = 0;
  ASSERT_TRUE(r.BeginSection(0x31545354u, 2, &version, &end));
  EXPECT_EQ(version, 2);
  uint32_t v = 0;
  EXPECT_TRUE(r.U32(&v));
  EXPECT_EQ(v, 99u);
  EXPECT_TRUE(r.EndSection(end));
  EXPECT_TRUE(r.AtEnd());
}

TEST(SnapshotCodecTest, SectionWrongTagFails) {
  snapshot::Writer w;
  const size_t s = w.BeginSection(0x31545354u, 1);
  w.EndSection(s);
  snapshot::Reader r(w.bytes());
  uint8_t version = 0;
  size_t end = 0;
  EXPECT_FALSE(r.BeginSection(0x32545354u, 1, &version, &end));
  EXPECT_FALSE(r.version_rejected());
}

TEST(SnapshotCodecTest, SectionFutureVersionRejected) {
  snapshot::Writer w;
  const size_t s = w.BeginSection(0x31545354u, 3);
  w.EndSection(s);
  snapshot::Reader r(w.bytes());
  uint8_t version = 0;
  size_t end = 0;
  EXPECT_FALSE(r.BeginSection(0x31545354u, 2, &version, &end));
  EXPECT_TRUE(r.version_rejected());
  EXPECT_EQ(SectionError(r, "x").code(), StatusCode::kUnimplemented);
}

TEST(SnapshotCodecTest, SectionUnderconsumptionDetected) {
  snapshot::Writer w;
  const size_t s = w.BeginSection(0x31545354u, 1);
  w.U32(1);
  w.EndSection(s);
  snapshot::Reader r(w.bytes());
  uint8_t version = 0;
  size_t end = 0;
  ASSERT_TRUE(r.BeginSection(0x31545354u, 1, &version, &end));
  EXPECT_FALSE(r.EndSection(end)) << "reader left bytes unconsumed";
}

// --- CRC-32 -----------------------------------------------------------------

/// The textbook bytewise CRC-32 (reflected 0xEDB88320, init and final XOR
/// 0xFFFFFFFF): the reference the sliced production kernel must match.
uint32_t BytewiseCrc32(std::string_view bytes) {
  uint32_t c = 0xFFFFFFFFu;
  for (const char ch : bytes) {
    c ^= static_cast<uint8_t>(ch);
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::string RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string bytes(n, '\0');
  for (char& b : bytes) b = static_cast<char>(rng.NextU64() & 0xFFu);
  return bytes;
}

TEST(SnapshotCrcTest, KnownAnswers) {
  EXPECT_EQ(snapshot::Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(snapshot::Crc32(""), 0u);
  EXPECT_EQ(BytewiseCrc32("123456789"), 0xCBF43926u);
}

TEST(SnapshotCrcTest, MatchesBytewiseAtEveryLengthAndOffset) {
  // Lengths straddle the 16-byte stride and the tail loop; offsets cover
  // every alignment of the 64-bit loads.
  const std::string bytes = RandomBytes(257 + 16, 13);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 257; ++len) {
      const std::string_view in = std::string_view(bytes).substr(offset, len);
      ASSERT_EQ(snapshot::Crc32(in), BytewiseCrc32(in))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(SnapshotCrcTest, MatchesBytewiseOnLargeBuffer) {
  const std::string bytes = RandomBytes(4 << 20, 17);
  EXPECT_EQ(snapshot::Crc32(bytes), BytewiseCrc32(bytes));
}

// --- file container ---------------------------------------------------------

TEST(SnapshotFileTest, RoundTrip) {
  const std::string payload = "some recognizer state bytes";
  const std::string file = snapshot::EncodeSnapshotFile(payload);
  const Result<std::string_view> decoded = snapshot::DecodeSnapshotFile(file);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded.value(), payload);
}

TEST(SnapshotFileTest, EveryTruncationFailsCleanly) {
  const std::string file = snapshot::EncodeSnapshotFile("payload payload");
  for (size_t len = 0; len < file.size(); ++len) {
    const Result<std::string_view> decoded =
        snapshot::DecodeSnapshotFile(std::string_view(file).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "truncation to " << len << " bytes";
  }
}

TEST(SnapshotFileTest, EveryFlippedByteIsDetected) {
  // The second payload spans several 16-byte strides of the CRC kernel plus
  // a tail, so flips inside the sliced loop are covered too.
  for (const std::string& payload :
       {std::string("payload payload"), RandomBytes(71, 5)}) {
    const std::string file = snapshot::EncodeSnapshotFile(payload);
    for (size_t i = 0; i < file.size(); ++i) {
      std::string corrupt = file;
      corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
      const Result<std::string_view> decoded =
          snapshot::DecodeSnapshotFile(corrupt);
      EXPECT_FALSE(decoded.ok())
          << "flip at byte " << i << " of a " << payload.size()
          << "-byte payload";
    }
  }
}

TEST(SnapshotFileTest, FutureFileVersionIsUnimplemented) {
  std::string file = snapshot::EncodeSnapshotFile("payload");
  file[4] = static_cast<char>(snapshot::kFileVersion + 1);  // version field
  const Result<std::string_view> decoded = snapshot::DecodeSnapshotFile(file);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kUnimplemented);
}

TEST(SnapshotFileTest, TrailingBytesAreCorruption) {
  std::string file = snapshot::EncodeSnapshotFile("payload");
  file += "junk";
  const Result<std::string_view> decoded = snapshot::DecodeSnapshotFile(file);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

// --- engine -----------------------------------------------------------------

class SnapshotEngineFixture {
 public:
  explicit SnapshotEngineFixture(stream::WindowSpec window,
                                 bool incremental = false) {
    rtec::EngineOptions opts;
    opts.incremental = incremental;
    engine = std::make_unique<rtec::Engine>(window, nullptr, opts);
    on = engine->DeclareEvent("on");
    off = engine->DeclareEvent("off");
    active = engine->DeclareFluent("active");
    rtec::SimpleFluentSpec spec;
    spec.fluent = active;
    spec.output = true;
    const rtec::EventId e_on = on, e_off = off;
    spec.domain = [e_on, e_off](const rtec::EvalContext& ctx) {
      std::vector<rtec::Term> keys;
      for (const auto& e : ctx.Events(e_on)) keys.push_back(e.subject);
      for (const auto& e : ctx.Events(e_off)) keys.push_back(e.subject);
      return keys;
    };
    spec.rules = [e_on, e_off](const rtec::EvalContext& ctx, rtec::Term key,
                               rtec::PointVec* initiated,
                               rtec::PointVec* terminated) {
      for (const auto& e : ctx.Events(e_on)) {
        if (e.subject == key) initiated->push_back({rtec::kTrue, e.t});
      }
      for (const auto& e : ctx.Events(e_off)) {
        if (e.subject == key) terminated->push_back({rtec::kTrue, e.t});
      }
    };
    rtec::DependencySpec deps;
    deps.events = {on, off};
    spec.deps = deps;
    engine->AddSimpleFluent(std::move(spec));
  }

  std::unique_ptr<rtec::Engine> engine;
  rtec::EventId on = -1;
  rtec::EventId off = -1;
  rtec::FluentId active = -1;
};

const rtec::Term kV1{0, 1};
const rtec::Term kV2{0, 2};

TEST(EngineSnapshotTest, RestoredEngineContinuesBitIdentically) {
  for (const bool incremental : {false, true}) {
    SCOPED_TRACE(incremental ? "incremental" : "naive");
    const stream::WindowSpec window{120, 60};
    SnapshotEngineFixture a(window, incremental);
    a.engine->AssertEvent(a.on, kV1, 30);
    a.engine->AssertEvent(a.on, kV2, 40);
    a.engine->Recognize(60);
    a.engine->AssertEvent(a.off, kV1, 70);

    snapshot::Writer w;
    a.engine->SaveTo(w);

    SnapshotEngineFixture b(window, incremental);
    snapshot::Reader r(w.bytes());
    const Status s = b.engine->RestoreFrom(r);
    ASSERT_TRUE(s.ok()) << s;
    EXPECT_TRUE(r.AtEnd());

    // Feed both engines the same continuation, compare every result.
    a.engine->AssertEvent(a.off, kV2, 100);
    b.engine->AssertEvent(b.off, kV2, 100);
    for (Timestamp q = 120; q <= 300; q += 60) {
      const rtec::RecognitionResult ra = a.engine->Recognize(q);
      const rtec::RecognitionResult rb = b.engine->Recognize(q);
      EXPECT_TRUE(ra == rb) << "diverged at q=" << q;
    }
  }
}

TEST(EngineSnapshotTest, SavedBytesAreDeterministic) {
  const stream::WindowSpec window{120, 60};
  SnapshotEngineFixture a(window, true);
  a.engine->AssertEvent(a.on, kV1, 30);
  a.engine->AssertEvent(a.on, kV2, 40);
  a.engine->Recognize(60);
  snapshot::Writer w1, w2;
  a.engine->SaveTo(w1);
  a.engine->SaveTo(w2);
  EXPECT_EQ(w1.bytes(), w2.bytes());
}

TEST(EngineSnapshotTest, WindowMismatchIsInvalidArgument) {
  SnapshotEngineFixture a(stream::WindowSpec{120, 60});
  snapshot::Writer w;
  a.engine->SaveTo(w);
  SnapshotEngineFixture b(stream::WindowSpec{240, 60});
  snapshot::Reader r(w.bytes());
  EXPECT_EQ(b.engine->RestoreFrom(r).code(), StatusCode::kInvalidArgument);
}

TEST(EngineSnapshotTest, ModeMismatchIsInvalidArgument) {
  SnapshotEngineFixture a(stream::WindowSpec{120, 60}, false);
  snapshot::Writer w;
  a.engine->SaveTo(w);
  SnapshotEngineFixture b(stream::WindowSpec{120, 60}, true);
  snapshot::Reader r(w.bytes());
  EXPECT_EQ(b.engine->RestoreFrom(r).code(), StatusCode::kInvalidArgument);
}

TEST(EngineSnapshotTest, SchemaMismatchIsInvalidArgument) {
  SnapshotEngineFixture a(stream::WindowSpec{120, 60});
  snapshot::Writer w;
  a.engine->SaveTo(w);
  rtec::Engine other(stream::WindowSpec{120, 60});
  other.DeclareEvent("different");
  snapshot::Reader r(w.bytes());
  EXPECT_EQ(other.RestoreFrom(r).code(), StatusCode::kInvalidArgument);
}

TEST(EngineSnapshotTest, TruncatedStateIsCorruption) {
  SnapshotEngineFixture a(stream::WindowSpec{120, 60});
  a.engine->AssertEvent(a.on, kV1, 30);
  a.engine->Recognize(60);
  snapshot::Writer w;
  a.engine->SaveTo(w);
  // Any truncation inside the state region must fail with a Status, not
  // crash. (Truncations inside the schema fingerprint may also surface as
  // InvalidArgument when a shortened string still compares unequal.)
  for (size_t len = 0; len < w.bytes().size(); len += 7) {
    SnapshotEngineFixture b(stream::WindowSpec{120, 60});
    snapshot::Reader r(std::string_view(w.bytes()).substr(0, len));
    EXPECT_FALSE(b.engine->RestoreFrom(r).ok()) << "truncated to " << len;
  }
}

// --- tracker ----------------------------------------------------------------

std::vector<stream::PositionTuple> SyntheticTuples(Timestamp from,
                                                   Timestamp to) {
  std::vector<stream::PositionTuple> tuples;
  for (Timestamp t = from; t < to; t += 30) {
    for (stream::Mmsi mmsi = 1; mmsi <= 5; ++mmsi) {
      stream::PositionTuple p;
      p.mmsi = mmsi;
      const double progress = static_cast<double>(t) / 3600.0;
      p.pos = {24.0 + 0.05 * progress * static_cast<double>(mmsi),
               37.0 + 0.02 * progress};
      p.tau = t;
      tuples.push_back(p);
    }
  }
  return tuples;
}

TEST(TrackerSnapshotTest, RestoredTrackerContinuesBitIdentically) {
  const tracker::TrackerParams params;
  tracker::ShardedMobilityTracker a(params, 2);
  a.ProcessSlide(SyntheticTuples(0, 600), 600);
  a.ProcessSlide(SyntheticTuples(600, 1200), 1200);

  snapshot::Writer w;
  a.SaveTo(w);

  tracker::ShardedMobilityTracker b(params, 2);
  snapshot::Reader r(w.bytes());
  const Status s = b.RestoreFrom(r);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_TRUE(r.AtEnd());

  const auto batch = SyntheticTuples(1200, 1800);
  const auto ca = a.ProcessSlide(batch, 1800);
  const auto cb = b.ProcessSlide(batch, 1800);
  ASSERT_EQ(ca.size(), cb.size());
  for (size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].mmsi, cb[i].mmsi);
    EXPECT_EQ(ca[i].tau, cb[i].tau);
    EXPECT_EQ(ca[i].flags, cb[i].flags);
    EXPECT_EQ(ca[i].pos.lon, cb[i].pos.lon);
    EXPECT_EQ(ca[i].pos.lat, cb[i].pos.lat);
    EXPECT_EQ(ca[i].speed_knots, cb[i].speed_knots);
    EXPECT_EQ(ca[i].heading_deg, cb[i].heading_deg);
    EXPECT_EQ(ca[i].duration, cb[i].duration);
  }
  std::vector<tracker::CriticalPoint> ta, tb;
  a.Finish(&ta);
  b.Finish(&tb);
  EXPECT_EQ(ta.size(), tb.size());
}

TEST(TrackerSnapshotTest, V1SectionWithTotalsTailStillRestores) {
  // Format v1 ended with 32 bytes of lifetime slide totals (slides,
  // busy_seconds, tuples, critical_points); v2 dropped them. Build a v1
  // image by hand from a v2 one and check it restores and resumes exactly.
  const tracker::TrackerParams params;
  tracker::ShardedMobilityTracker a(params, 2);
  a.ProcessSlide(SyntheticTuples(0, 600), 600);
  a.ProcessSlide(SyntheticTuples(600, 1200), 1200);
  snapshot::Writer v2;
  a.SaveTo(v2);
  ASSERT_EQ(static_cast<uint8_t>(v2.bytes()[0]), 2);

  std::string v1 = v2.bytes();
  v1[0] = 1;
  snapshot::Writer tail;
  tail.U64(2);       // slides
  tail.F64(0.0125);  // busy_seconds
  tail.U64(200);     // tuples
  tail.U64(17);      // critical_points
  v1 += tail.bytes();

  tracker::ShardedMobilityTracker b(params, 2);
  snapshot::Reader r(v1);
  const Status s = b.RestoreFrom(r);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_TRUE(r.AtEnd());

  const auto batch = SyntheticTuples(1200, 1800);
  const auto ca = a.ProcessSlide(batch, 1800);
  const auto cb = b.ProcessSlide(batch, 1800);
  ASSERT_FALSE(ca.empty());
  ASSERT_EQ(ca.size(), cb.size());
  for (size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].mmsi, cb[i].mmsi);
    EXPECT_EQ(ca[i].tau, cb[i].tau);
    EXPECT_EQ(ca[i].flags, cb[i].flags);
    EXPECT_EQ(ca[i].pos.lon, cb[i].pos.lon);
    EXPECT_EQ(ca[i].pos.lat, cb[i].pos.lat);
    EXPECT_EQ(ca[i].speed_knots, cb[i].speed_knots);
    EXPECT_EQ(ca[i].heading_deg, cb[i].heading_deg);
    EXPECT_EQ(ca[i].duration, cb[i].duration);
  }
  // Re-saved state is the v2 image of the same tracker.
  snapshot::Writer resaved;
  tracker::ShardedMobilityTracker c(params, 2);
  snapshot::Reader r2(v1);
  ASSERT_TRUE(c.RestoreFrom(r2).ok());
  c.SaveTo(resaved);
  EXPECT_TRUE(resaved.bytes() == v2.bytes());

  // A v1 image cut inside its totals tail is corrupt, not silently accepted.
  tracker::ShardedMobilityTracker d(params, 2);
  snapshot::Reader cut(std::string_view(v1).substr(0, v1.size() - 8));
  EXPECT_EQ(d.RestoreFrom(cut).code(), StatusCode::kCorruption);
}

TEST(TrackerSnapshotTest, ShardCountMismatchIsInvalidArgument) {
  const tracker::TrackerParams params;
  tracker::ShardedMobilityTracker a(params, 2);
  snapshot::Writer w;
  a.SaveTo(w);
  tracker::ShardedMobilityTracker b(params, 3);
  snapshot::Reader r(w.bytes());
  EXPECT_EQ(b.RestoreFrom(r).code(), StatusCode::kInvalidArgument);
}

// --- spatial facts, live index ---------------------------------------------

TEST(SpatialFactTableSnapshotTest, RoundTrip) {
  SpatialFactTable a;
  a.AddFactGroup(7, 100, {3, 1, 2});
  a.AddFactGroup(7, 200, {});
  a.AddFactGroup(9, 150, {5});
  snapshot::Writer w;
  a.SaveTo(w);

  SpatialFactTable b;
  snapshot::Reader r(w.bytes());
  const Status s = b.RestoreFrom(r);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(b.fact_count(), a.fact_count());
  EXPECT_EQ(b.AreasCloseAt(7, 150), (std::vector<int32_t>{1, 2, 3}));
  EXPECT_TRUE(b.AreasCloseAt(7, 250).empty());
  EXPECT_TRUE(b.IsCloseAt(9, 5, 150));
  EXPECT_FALSE(b.IsCloseAt(9, 5, 100));
}

TEST(SpatialFactTableSnapshotTest, UnsortedAreasAreCorruption) {
  SpatialFactTable a;
  a.AddFactGroup(7, 100, {1, 2});
  snapshot::Writer w;
  a.SaveTo(w);
  // The two areas of the single group are the last 8 bytes; swap them.
  std::string bytes = w.bytes();
  ASSERT_GE(bytes.size(), 8u);
  std::swap(bytes[bytes.size() - 8], bytes[bytes.size() - 4]);
  SpatialFactTable b;
  snapshot::Reader r(bytes);
  EXPECT_EQ(b.RestoreFrom(r).code(), StatusCode::kCorruption);
  EXPECT_EQ(b.fact_count(), 0u) << "no partial state on error";
}

TEST(LiveIndexSnapshotTest, RoundTripPreservesQueries) {
  LiveVesselIndex a(0.1);
  for (stream::Mmsi m = 1; m <= 20; ++m) {
    tracker::CriticalPoint cp;
    cp.mmsi = m;
    cp.pos = {24.0 + 0.01 * static_cast<double>(m), 37.0};
    cp.tau = 100 + m;
    cp.speed_knots = 10.0;
    cp.heading_deg = 90.0;
    a.Update(cp);
  }
  snapshot::Writer w;
  a.SaveTo(w);

  LiveVesselIndex b(0.1);
  snapshot::Reader r(w.bytes());
  const Status s = b.RestoreFrom(r);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(b.size(), a.size());
  const geo::GeoPoint center{24.1, 37.0};
  const auto na = a.Nearest(center, 5);
  const auto nb = b.Nearest(center, 5);
  ASSERT_EQ(na.size(), nb.size());
  for (size_t i = 0; i < na.size(); ++i) {
    EXPECT_EQ(na[i]->mmsi, nb[i]->mmsi);
  }
  const auto wa = a.Within(center, 50000.0);
  const auto wb = b.Within(center, 50000.0);
  ASSERT_EQ(wa.size(), wb.size());
  for (size_t i = 0; i < wa.size(); ++i) {
    EXPECT_EQ(wa[i]->mmsi, wb[i]->mmsi);
  }
}

TEST(LiveIndexSnapshotTest, CellResolutionMismatchIsInvalidArgument) {
  LiveVesselIndex a(0.1);
  snapshot::Writer w;
  a.SaveTo(w);
  LiveVesselIndex b(0.2);
  snapshot::Reader r(w.bytes());
  EXPECT_EQ(b.RestoreFrom(r).code(), StatusCode::kInvalidArgument);
}

// --- MOD layer --------------------------------------------------------------

TEST(StoreSnapshotTest, RoundTripPreservesQueriesAndIndexes) {
  mod::TrajectoryStore a;
  for (int i = 0; i < 5; ++i) {
    mod::Trip t;
    t.mmsi = 100 + static_cast<stream::Mmsi>(i % 2);
    t.origin_port = i;
    t.destination_port = (i + 1) % 3;
    t.start_tau = 1000 * i;
    t.end_tau = 1000 * i + 500;
    t.distance_m = 1500.0 * (i + 1);
    tracker::CriticalPoint cp;
    cp.mmsi = t.mmsi;
    cp.tau = t.start_tau;
    t.points = {cp};
    a.AddTrip(std::move(t));
  }
  snapshot::Writer w;
  a.SaveTo(w);

  mod::TrajectoryStore b;
  snapshot::Reader r(w.bytes());
  const Status s = b.RestoreFrom(r);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(b.trip_count(), a.trip_count());
  EXPECT_EQ(b.TripsOfVessel(100).size(), a.TripsOfVessel(100).size());
  EXPECT_EQ(b.TripsTo(1).size(), a.TripsTo(1).size());
  const auto od_a = a.OriginDestinationMatrix();
  const auto od_b = b.OriginDestinationMatrix();
  ASSERT_EQ(od_a.size(), od_b.size());
  for (const auto& [key, cell] : od_a) {
    const auto it = od_b.find(key);
    ASSERT_NE(it, od_b.end());
    EXPECT_EQ(it->second.trips, cell.trips);
    EXPECT_EQ(it->second.total_travel_time, cell.total_travel_time);
    EXPECT_EQ(it->second.total_distance_m, cell.total_distance_m);
  }
}

TEST(StoreSnapshotTest, TruncationIsCorruptionWithoutPartialState) {
  mod::TrajectoryStore a;
  mod::Trip t;
  t.mmsi = 1;
  a.AddTrip(std::move(t));
  snapshot::Writer w;
  a.SaveTo(w);
  for (size_t len = 0; len < w.bytes().size(); ++len) {
    mod::TrajectoryStore b;
    snapshot::Reader r(std::string_view(w.bytes()).substr(0, len));
    EXPECT_FALSE(b.RestoreFrom(r).ok());
    EXPECT_EQ(b.trip_count(), 0u) << "partial state after truncation " << len;
  }
}

// --- pipeline ---------------------------------------------------------------

sim::WorldParams SmallWorldParams() {
  sim::WorldParams p;
  p.ports = 8;
  p.protected_areas = 3;
  p.forbidden_fishing_areas = 3;
  p.shallow_areas = 2;
  return p;
}

PipelineConfig SmallPipelineConfig() {
  PipelineConfig cfg;
  cfg.window = stream::WindowSpec{kHour, 10 * kMinute};
  cfg.partitions = 1;
  cfg.archive = true;
  return cfg;
}

TEST(PipelineSnapshotTest, ManifestDescribesTheRun) {
  sim::World world = sim::BuildWorld(31, SmallWorldParams());
  sim::FleetConfig fleet_cfg;
  fleet_cfg.vessels = 10;
  fleet_cfg.duration = 3 * kHour;
  fleet_cfg.seed = 5;
  sim::FleetSimulator fleet(&world, fleet_cfg);
  stream::StreamReplayer replayer(fleet.Generate());

  const PipelineConfig cfg = SmallPipelineConfig();
  SurveillancePipeline pipeline(&world.knowledge, cfg);
  stream::QueryTimeSequence q(cfg.window, replayer.first_timestamp());
  Timestamp last_q = 0;
  for (int i = 0; i < 6; ++i) {
    last_q = q.Fire();
    pipeline.RunSlide(last_q, replayer.NextBatch(last_q));
  }

  snapshot::Writer w;
  pipeline.SaveTo(w);
  const Result<surveillance::SnapshotManifest> m =
      surveillance::ReadSnapshotManifest(w.bytes());
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(m.value().last_query, last_q);
  EXPECT_EQ(m.value().window.range, cfg.window.range);
  EXPECT_EQ(m.value().window.slide, cfg.window.slide);
  EXPECT_EQ(m.value().partitions, cfg.partitions);
  EXPECT_EQ(m.value().tracker_shards, cfg.tracker_shards);
  EXPECT_TRUE(m.value().archive);
}

TEST(PipelineSnapshotTest, ConfigMismatchIsInvalidArgument) {
  sim::World world = sim::BuildWorld(32, SmallWorldParams());
  const PipelineConfig cfg = SmallPipelineConfig();
  SurveillancePipeline a(&world.knowledge, cfg);
  snapshot::Writer w;
  a.SaveTo(w);

  PipelineConfig other = cfg;
  other.window.slide = 5 * kMinute;
  SurveillancePipeline b1(&world.knowledge, other);
  snapshot::Reader r1(w.bytes());
  EXPECT_EQ(b1.RestoreFrom(r1).code(), StatusCode::kInvalidArgument);

  other = cfg;
  other.partitions = 2;
  SurveillancePipeline b2(&world.knowledge, other);
  snapshot::Reader r2(w.bytes());
  EXPECT_EQ(b2.RestoreFrom(r2).code(), StatusCode::kInvalidArgument);

  other = cfg;
  other.tracker_shards = 2;
  SurveillancePipeline b3(&world.knowledge, other);
  snapshot::Reader r3(w.bytes());
  EXPECT_EQ(b3.RestoreFrom(r3).code(), StatusCode::kInvalidArgument);

  other = cfg;
  other.archive = false;
  SurveillancePipeline b4(&world.knowledge, other);
  snapshot::Reader r4(w.bytes());
  EXPECT_EQ(b4.RestoreFrom(r4).code(), StatusCode::kInvalidArgument);

  other = cfg;
  other.incremental_recognition = true;
  SurveillancePipeline b5(&world.knowledge, other);
  snapshot::Reader r5(w.bytes());
  EXPECT_EQ(b5.RestoreFrom(r5).code(), StatusCode::kInvalidArgument);
}

TEST(PipelineSnapshotTest, ManifestRecordsTheResolvedEngine) {
  // The manifest's recognition mode is the engine that runs, whichever
  // config field selected it.
  sim::World world = sim::BuildWorld(38, SmallWorldParams());
  struct Case {
    const char* name;
    PipelineConfig cfg;
    bool incremental;
  };
  std::vector<Case> cases;
  PipelineConfig cfg = SmallPipelineConfig();
  cases.push_back({"default", cfg, false});
  cfg.incremental_recognition = true;
  cases.push_back({"legacy flag", cfg, true});
  cfg = SmallPipelineConfig();
  cfg.recognition_engine = surveillance::EngineMode::kIncremental;
  cases.push_back({"kIncremental", cfg, true});
  cfg.recognition_engine = surveillance::EngineMode::kAuto;  // ω = 6β
  cases.push_back({"kAuto, long window", cfg, true});
  cfg.window = stream::WindowSpec{kHour, kHour};
  cases.push_back({"kAuto, ω = β", cfg, false});
  cfg = SmallPipelineConfig();
  cfg.incremental_recognition = true;
  cfg.recognition_engine = surveillance::EngineMode::kNaive;
  cases.push_back({"kNaive overrides the flag", cfg, false});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SurveillancePipeline pipeline(&world.knowledge, c.cfg);
    snapshot::Writer w;
    pipeline.SaveTo(w);
    const Result<surveillance::SnapshotManifest> m =
        surveillance::ReadSnapshotManifest(w.bytes());
    ASSERT_TRUE(m.ok()) << m.status();
    EXPECT_EQ(m.value().incremental_recognition, c.incremental);
  }
}

TEST(PipelineSnapshotTest, EngineSelectorsWithOneEngineShareSnapshots) {
  // The legacy flag and the engine enum selecting the same engine are the
  // same recognizer, so their snapshots restore into each other.
  sim::World world = sim::BuildWorld(39, SmallWorldParams());
  sim::FleetConfig fleet_cfg;
  fleet_cfg.vessels = 8;
  fleet_cfg.duration = 2 * kHour;
  fleet_cfg.seed = 7;
  sim::FleetSimulator fleet(&world, fleet_cfg);
  stream::StreamReplayer replayer(fleet.Generate());

  PipelineConfig by_flag = SmallPipelineConfig();
  by_flag.incremental_recognition = true;
  PipelineConfig by_enum = SmallPipelineConfig();
  by_enum.recognition_engine = surveillance::EngineMode::kIncremental;

  SurveillancePipeline a(&world.knowledge, by_flag);
  stream::QueryTimeSequence q(by_flag.window, replayer.first_timestamp());
  for (int i = 0; i < 4; ++i) {
    const Timestamp qt = q.Fire();
    a.RunSlide(qt, replayer.NextBatch(qt));
  }
  snapshot::Writer wa;
  a.SaveTo(wa);
  SurveillancePipeline b(&world.knowledge, by_enum);
  snapshot::Reader ra(wa.bytes());
  const Status sb = b.RestoreFrom(ra);
  ASSERT_TRUE(sb.ok()) << sb;

  snapshot::Writer wb;
  b.SaveTo(wb);
  EXPECT_TRUE(wb.bytes() == wa.bytes()) << "restored state differs";
  SurveillancePipeline c(&world.knowledge, by_flag);
  snapshot::Reader rb(wb.bytes());
  const Status sc = c.RestoreFrom(rb);
  ASSERT_TRUE(sc.ok()) << sc;
}

/// One top-level section of a pipeline snapshot (framing: u32 FourCC tag,
/// u8 version, u64 payload length, payload).
struct Frame {
  size_t begin = 0;  ///< Offset of the tag.
  size_t end = 0;    ///< One past the payload.
  uint64_t length = 0;
};
constexpr size_t kFrameHeader = sizeof(uint32_t) + 1 + sizeof(uint64_t);

std::map<std::string, Frame> Frames(std::string_view bytes) {
  std::map<std::string, Frame> out;
  size_t pos = 0;
  while (pos + kFrameHeader <= bytes.size()) {
    Frame f;
    f.begin = pos;
    std::memcpy(&f.length, bytes.data() + pos + sizeof(uint32_t) + 1,
                sizeof(f.length));
    f.end = pos + kFrameHeader + f.length;
    out[std::string(bytes.substr(pos, sizeof(uint32_t)))] = f;
    pos = f.end;
  }
  return out;
}

TEST(PipelineSnapshotTest, UnarchivedRunBuffersNoCriticalPoints) {
  // Only the archiver drains the window's critical-point buffer, so without
  // one the buffer must stay empty: the snapshot's pipeline section is its
  // bare count however long the run.
  sim::World world = sim::BuildWorld(37, SmallWorldParams());
  sim::FleetConfig fleet_cfg;
  fleet_cfg.vessels = 10;
  fleet_cfg.duration = 4 * kHour;
  fleet_cfg.seed = 6;
  sim::FleetSimulator fleet(&world, fleet_cfg);
  stream::StreamReplayer replayer(fleet.Generate());

  PipelineConfig cfg = SmallPipelineConfig();
  cfg.archive = false;
  SurveillancePipeline pipeline(&world.knowledge, cfg);
  stream::QueryTimeSequence q(cfg.window, replayer.first_timestamp());
  const auto check = [&](const std::string& when) {
    snapshot::Writer w;
    pipeline.SaveTo(w);
    const Result<surveillance::SnapshotManifest> m =
        surveillance::ReadSnapshotManifest(w.bytes());
    ASSERT_TRUE(m.ok()) << m.status();
    EXPECT_EQ(m.value().window_critical_points, 0u) << when;
    EXPECT_EQ(Frames(w.bytes()).at("PIPE").length, sizeof(uint64_t)) << when;
  };
  size_t emitted = 0;
  for (int i = 1; i <= 24; ++i) {
    const Timestamp qt = q.Fire();
    emitted += pipeline.RunSlide(qt, replayer.NextBatch(qt)).criticals.size();
    if (i % 6 == 0) check("after slide " + std::to_string(i));
  }
  emitted += pipeline.Finish().criticals.size();
  check("after Finish");
  EXPECT_GT(emitted, 0u) << "the run must produce critical points";
}

TEST(PipelineSnapshotTest, UnarchivedRestoreDropsBufferedCriticalPoints) {
  // Snapshots of archive-less runs written before the buffer was bounded
  // carry critical points nothing will drain; restore drops them.
  sim::World world = sim::BuildWorld(40, SmallWorldParams());
  PipelineConfig cfg = SmallPipelineConfig();
  cfg.archive = false;
  SurveillancePipeline a(&world.knowledge, cfg);
  snapshot::Writer w;
  a.SaveTo(w);
  const std::string& bytes = w.bytes();
  const Frame pipe = Frames(bytes).at("PIPE");

  // Splice in a pipeline section holding one buffered point.
  snapshot::Writer payload;
  payload.U64(1);
  tracker::CriticalPoint cp;
  cp.mmsi = 237000001;
  cp.tau = 1000;
  tracker::SaveCriticalPoint(cp, payload);
  const uint64_t length = payload.bytes().size();
  std::string legacy = bytes.substr(0, pipe.begin + sizeof(uint32_t) + 1);
  legacy.append(reinterpret_cast<const char*>(&length), sizeof(length));
  legacy += payload.bytes();
  legacy += bytes.substr(pipe.end);

  SurveillancePipeline b(&world.knowledge, cfg);
  snapshot::Reader r(legacy);
  const Status s = b.RestoreFrom(r);
  ASSERT_TRUE(s.ok()) << s;
  snapshot::Writer resaved;
  b.SaveTo(resaved);
  const Result<surveillance::SnapshotManifest> m =
      surveillance::ReadSnapshotManifest(resaved.bytes());
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(m.value().window_critical_points, 0u);
  EXPECT_TRUE(resaved.bytes() == bytes) << "restored state differs";
}

// --- recognizer and manifest images of older formats --------------------------

/// Critical points of a small simulated fleet in `world`, one run per slide
/// (ω = 1 h, β = 10 min from t = 0).
std::vector<std::vector<tracker::CriticalPoint>> SlideCriticals(
    sim::World* world) {
  sim::FleetConfig fleet_cfg;
  fleet_cfg.vessels = 10;
  fleet_cfg.duration = 2 * kHour;
  fleet_cfg.seed = 9;
  sim::FleetSimulator fleet(world, fleet_cfg);
  stream::StreamReplayer replayer(fleet.Generate());
  tracker::ShardedMobilityTracker tracker(tracker::TrackerParams{}, 1);
  std::vector<std::vector<tracker::CriticalPoint>> slides;
  for (Timestamp q = 10 * kMinute; q <= 2 * kHour; q += 10 * kMinute) {
    slides.push_back(tracker.ProcessSlide(replayer.NextBatch(q), q));
  }
  return slides;
}

surveillance::RecognizerConfig SpatialFactRecognizerConfig() {
  surveillance::RecognizerConfig rc;
  rc.window = stream::WindowSpec{kHour, 10 * kMinute};
  rc.ce.use_spatial_facts = true;
  return rc;
}

/// The v1 image of `rec`: its current (v2) image with the version byte set
/// back to 1 and v1's 24-byte feed-counter tail appended.
std::string V1RecognizerImage(const surveillance::CERecognizer& rec) {
  snapshot::Writer w;
  rec.SaveTo(w);
  EXPECT_EQ(static_cast<uint8_t>(w.bytes()[0]), 2);
  std::string v1 = w.bytes();
  v1[0] = 1;
  snapshot::Writer tail;
  tail.U64(412);  // critical points fed
  tail.U64(97);   // ME events asserted
  tail.U64(230);  // spatial facts asserted
  return v1 + tail.bytes();
}

TEST(RecognizerSnapshotTest, V1RecognizerWithFeedStatsTailStillRestores) {
  sim::World world = sim::BuildWorld(41, SmallWorldParams());
  const auto slides = SlideCriticals(&world);
  ASSERT_GE(slides.size(), 8u);
  const surveillance::RecognizerConfig rc = SpatialFactRecognizerConfig();
  surveillance::CERecognizer a(&world.knowledge, rc);
  for (size_t i = 0; i + 1 < slides.size(); ++i) {
    a.Feed(std::span<const tracker::CriticalPoint>(slides[i]));
    a.Recognize(static_cast<Timestamp>(i + 1) * 10 * kMinute);
  }
  snapshot::Writer v2;
  a.SaveTo(v2);
  const std::string v1 = V1RecognizerImage(a);

  surveillance::CERecognizer b(&world.knowledge, rc);
  snapshot::Reader r(v1);
  const Status s = b.RestoreFrom(r);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_TRUE(r.AtEnd());
  snapshot::Writer resaved;
  b.SaveTo(resaved);
  EXPECT_TRUE(resaved.bytes() == v2.bytes());

  // Both continue identically.
  a.Feed(std::span<const tracker::CriticalPoint>(slides.back()));
  b.Feed(std::span<const tracker::CriticalPoint>(slides.back()));
  const Timestamp q = static_cast<Timestamp>(slides.size()) * 10 * kMinute;
  EXPECT_TRUE(a.Recognize(q) == b.Recognize(q));

  // A v1 image cut inside its tail is corrupt, not silently accepted.
  surveillance::CERecognizer c(&world.knowledge, rc);
  snapshot::Reader cut(std::string_view(v1).substr(0, v1.size() - 8));
  EXPECT_EQ(c.RestoreFrom(cut).code(), StatusCode::kCorruption);
}

TEST(RecognizerSnapshotTest, V1PartitionedImageWithTotalsTailStillRestores) {
  sim::World world = sim::BuildWorld(42, SmallWorldParams());
  const auto slides = SlideCriticals(&world);
  ASSERT_GE(slides.size(), 8u);
  surveillance::RecognizerConfig rc = SpatialFactRecognizerConfig();
  rc.incremental = true;
  surveillance::PartitionedRecognizer a(world.knowledge, rc, 2);
  for (size_t i = 0; i + 1 < slides.size(); ++i) {
    a.Feed(std::span<const tracker::CriticalPoint>(slides[i]));
    a.Recognize(static_cast<Timestamp>(i + 1) * 10 * kMinute);
  }
  snapshot::Writer v2w;
  a.SaveTo(v2w);
  const std::string& v2 = v2w.bytes();
  ASSERT_EQ(static_cast<uint8_t>(v2[0]), 2);

  // v1 layout: u8 version, u32 partition count, then per partition its f64
  // band bound and v1 recognizer image, then 48 bytes of lifetime totals.
  std::string v1 = v2.substr(0, 1 + sizeof(uint32_t));
  v1[0] = 1;
  size_t pos = v1.size();
  for (int p = 0; p < a.partition_count(); ++p) {
    snapshot::Writer part;
    a.partition(p).SaveTo(part);
    v1 += v2.substr(pos, sizeof(double));
    v1 += V1RecognizerImage(a.partition(p));
    pos += sizeof(double) + part.size();
  }
  ASSERT_EQ(pos, v2.size());
  snapshot::Writer tail;
  for (const uint64_t v : {13, 880, 5120, 40, 9, 2}) tail.U64(v);
  v1 += tail.bytes();

  surveillance::PartitionedRecognizer b(world.knowledge, rc, 2);
  snapshot::Reader r(v1);
  const Status s = b.RestoreFrom(r);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_TRUE(r.AtEnd());
  snapshot::Writer resaved;
  b.SaveTo(resaved);
  EXPECT_TRUE(resaved.bytes() == v2);

  a.Feed(std::span<const tracker::CriticalPoint>(slides.back()));
  b.Feed(std::span<const tracker::CriticalPoint>(slides.back()));
  const Timestamp q = static_cast<Timestamp>(slides.size()) * 10 * kMinute;
  EXPECT_TRUE(a.Recognize(q) == b.Recognize(q));

  surveillance::PartitionedRecognizer c(world.knowledge, rc, 2);
  snapshot::Reader cut(std::string_view(v1).substr(0, v1.size() - 8));
  EXPECT_EQ(c.RestoreFrom(cut).code(), StatusCode::kCorruption);
}

TEST(PipelineSnapshotTest, V2ManifestWithCountersTailStillLoads) {
  // Manifest v2 ended with 16 bytes of dirty-propagation counters that v3
  // dropped. Build a v2 snapshot by hand from a v3 one.
  sim::World world = sim::BuildWorld(43, SmallWorldParams());
  sim::FleetConfig fleet_cfg;
  fleet_cfg.vessels = 10;
  fleet_cfg.duration = 2 * kHour;
  fleet_cfg.seed = 10;
  sim::FleetSimulator fleet(&world, fleet_cfg);
  stream::StreamReplayer replayer(fleet.Generate());
  const PipelineConfig cfg = SmallPipelineConfig();
  SurveillancePipeline pipeline(&world.knowledge, cfg);
  stream::QueryTimeSequence q(cfg.window, replayer.first_timestamp());
  for (int i = 0; i < 6; ++i) {
    const Timestamp qt = q.Fire();
    pipeline.RunSlide(qt, replayer.NextBatch(qt));
  }
  snapshot::Writer v3w;
  pipeline.SaveTo(v3w);
  const std::string& v3 = v3w.bytes();
  const Frame mani = Frames(v3).at("MANI");
  ASSERT_EQ(mani.begin, 0u);
  ASSERT_EQ(static_cast<uint8_t>(v3[sizeof(uint32_t)]), 3);

  std::string v2 = v3;
  v2[sizeof(uint32_t)] = 2;
  const uint64_t length = mani.length + 2 * sizeof(uint64_t);
  std::memcpy(v2.data() + sizeof(uint32_t) + 1, &length, sizeof(length));
  snapshot::Writer tail;
  tail.U64(31);  // spans narrowed
  tail.U64(4);   // fleet floor hits
  v2.insert(mani.end, tail.bytes());

  const Result<surveillance::SnapshotManifest> m3 =
      surveillance::ReadSnapshotManifest(v3);
  const Result<surveillance::SnapshotManifest> m2 =
      surveillance::ReadSnapshotManifest(v2);
  ASSERT_TRUE(m3.ok()) << m3.status();
  ASSERT_TRUE(m2.ok()) << m2.status();
  EXPECT_EQ(m2.value().last_query, m3.value().last_query);
  EXPECT_EQ(m2.value().window_critical_points,
            m3.value().window_critical_points);
  EXPECT_EQ(m2.value().archived_trips, m3.value().archived_trips);

  SurveillancePipeline restored(&world.knowledge, cfg);
  snapshot::Reader r(v2);
  const Status s = restored.RestoreFrom(r);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_TRUE(r.AtEnd());
  snapshot::Writer resaved;
  restored.SaveTo(resaved);
  EXPECT_TRUE(resaved.bytes() == v3);

  // A v2 manifest cut inside its counters tail is corrupt.
  const size_t v2_mani_end = mani.end + tail.size();
  const Result<surveillance::SnapshotManifest> cut =
      surveillance::ReadSnapshotManifest(
          std::string_view(v2).substr(0, v2_mani_end - 8));
  EXPECT_EQ(cut.status().code(), StatusCode::kCorruption);
}

TEST(PipelineSnapshotTest, SaveLoadFileRoundTrip) {
  sim::World world = sim::BuildWorld(33, SmallWorldParams());
  sim::FleetConfig fleet_cfg;
  fleet_cfg.vessels = 8;
  fleet_cfg.duration = 2 * kHour;
  fleet_cfg.seed = 9;
  sim::FleetSimulator fleet(&world, fleet_cfg);
  stream::StreamReplayer replayer(fleet.Generate());

  const PipelineConfig cfg = SmallPipelineConfig();
  SurveillancePipeline a(&world.knowledge, cfg);
  stream::QueryTimeSequence q(cfg.window, replayer.first_timestamp());
  for (int i = 0; i < 4; ++i) {
    const Timestamp qt = q.Fire();
    a.RunSlide(qt, replayer.NextBatch(qt));
  }

  const std::string path = ::testing::TempDir() + "/pipeline.msnp";
  ASSERT_TRUE(a.SaveSnapshot(path).ok());
  SurveillancePipeline b(&world.knowledge, cfg);
  const Status s = b.LoadSnapshot(path);
  ASSERT_TRUE(s.ok()) << s;
  std::remove(path.c_str());
}

TEST(PipelineSnapshotTest, FailedWriteLeavesPreviousCheckpoint) {
  sim::World world = sim::BuildWorld(35, SmallWorldParams());
  const PipelineConfig cfg = SmallPipelineConfig();
  SurveillancePipeline a(&world.knowledge, cfg);
  const std::string path = ::testing::TempDir() + "/atomic.msnp";
  const std::string tmp = path + ".tmp";
  ASSERT_TRUE(a.SaveSnapshot(path).ok());
  EXPECT_FALSE(std::filesystem::exists(tmp)) << "temp file left behind";

  // A directory squatting on the temp name makes the next write fail.
  std::filesystem::create_directory(tmp);
  ASSERT_TRUE(std::filesystem::is_directory(tmp));
  EXPECT_EQ(a.SaveSnapshot(path).code(), StatusCode::kIoError);
  std::filesystem::remove(tmp);

  // The first checkpoint survived intact.
  SurveillancePipeline b(&world.knowledge, cfg);
  const Status s = b.LoadSnapshot(path);
  ASSERT_TRUE(s.ok()) << s;
  std::remove(path.c_str());
}

TEST(PipelineSnapshotTest, FileTruncatedMidPayloadIsCorruption) {
  sim::World world = sim::BuildWorld(36, SmallWorldParams());
  const PipelineConfig cfg = SmallPipelineConfig();
  SurveillancePipeline a(&world.knowledge, cfg);
  const std::string path = ::testing::TempDir() + "/truncated.msnp";
  ASSERT_TRUE(a.SaveSnapshot(path).ok());
  const uintmax_t size = std::filesystem::file_size(path);
  ASSERT_GT(size, snapshot::kFileHeaderSize + 1);
  std::filesystem::resize_file(
      path, snapshot::kFileHeaderSize + (size - snapshot::kFileHeaderSize) / 2);

  SurveillancePipeline b(&world.knowledge, cfg);
  EXPECT_EQ(b.LoadSnapshot(path).code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(PipelineSnapshotTest, TruncatedPayloadNeverCrashes) {
  sim::World world = sim::BuildWorld(34, SmallWorldParams());
  sim::FleetConfig fleet_cfg;
  fleet_cfg.vessels = 5;
  fleet_cfg.duration = 90 * kMinute;
  fleet_cfg.seed = 4;
  sim::FleetSimulator fleet(&world, fleet_cfg);
  stream::StreamReplayer replayer(fleet.Generate());

  const PipelineConfig cfg = SmallPipelineConfig();
  SurveillancePipeline a(&world.knowledge, cfg);
  stream::QueryTimeSequence q(cfg.window, replayer.first_timestamp());
  for (int i = 0; i < 3; ++i) {
    const Timestamp qt = q.Fire();
    a.RunSlide(qt, replayer.NextBatch(qt));
  }
  snapshot::Writer w;
  a.SaveTo(w);
  const std::string& bytes = w.bytes();
  // Stride through truncation lengths (full sweep is quadratic in payload
  // size); every prefix must produce a Status, never a crash.
  for (size_t len = 0; len < bytes.size(); len += 97) {
    SurveillancePipeline b(&world.knowledge, cfg);
    snapshot::Reader r(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(b.RestoreFrom(r).ok()) << "truncated to " << len;
  }
}

}  // namespace
}  // namespace maritime
