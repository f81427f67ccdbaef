// Differential test: the production AIS decoder (string_view parser,
// word-packed de-armor, reused buffers) against the reference decoder in
// ais_reference.cc. Both scanners see the same lines; every status code,
// tuple, last_report(), static report and ScannerStats counter must agree.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ais/messages.h"
#include "ais/nmea.h"
#include "ais/scanner.h"
#include "ais/sixbit.h"
#include "ais_reference.h"
#include "common/rng.h"
#include "sim/generator.h"
#include "sim/nmea_feed.h"
#include "sim/world.h"

namespace maritime::ais {
namespace {

bool SameReport(const PositionReport& a, const PositionReport& b) {
  return a.type == b.type && a.mmsi == b.mmsi && a.nav_status == b.nav_status &&
         a.lon_deg == b.lon_deg && a.lat_deg == b.lat_deg &&
         a.sog_knots == b.sog_knots && a.cog_deg == b.cog_deg &&
         a.true_heading_deg == b.true_heading_deg &&
         a.utc_second == b.utc_second &&
         a.position_accuracy_high == b.position_accuracy_high &&
         a.ship_name == b.ship_name && a.ship_type == b.ship_type;
}

bool SameStatic(const StaticVoyageData& a, const StaticVoyageData& b) {
  return a.mmsi == b.mmsi && a.imo_number == b.imo_number &&
         a.call_sign == b.call_sign && a.ship_name == b.ship_name &&
         a.ship_type == b.ship_type && a.draught_m == b.draught_m &&
         a.eta_month == b.eta_month && a.eta_day == b.eta_day &&
         a.eta_hour == b.eta_hour && a.eta_minute == b.eta_minute &&
         a.destination == b.destination;
}

bool SameStats(const ScannerStats& a, const ScannerStats& b) {
  return a.lines == b.lines && a.framing_errors == b.framing_errors &&
         a.fragment_pending == b.fragment_pending &&
         a.fragment_errors == b.fragment_errors &&
         a.payload_errors == b.payload_errors &&
         a.unsupported_type == b.unsupported_type &&
         a.invalid_position == b.invalid_position &&
         a.static_reports == b.static_reports && a.accepted == b.accepted;
}

/// Feeds `lines` through both scanners, failing on the first divergence.
/// Returns the number of lines the production scanner accepted.
size_t FeedBoth(const std::vector<std::string>& lines) {
  DataScanner fast;
  reference::DataScanner ref;
  size_t accepted = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const auto a = fast.FeedTagged(line);
    const auto b = ref.FeedTagged(line);
    EXPECT_EQ(a.status().code(), b.status().code())
        << "line " << i << ": " << line;
    if (a.ok() && b.ok()) {
      ++accepted;
      EXPECT_EQ(a.value().mmsi, b.value().mmsi) << line;
      EXPECT_EQ(a.value().pos.lon, b.value().pos.lon) << line;
      EXPECT_EQ(a.value().pos.lat, b.value().pos.lat) << line;
      EXPECT_EQ(a.value().tau, b.value().tau) << line;
    }
    EXPECT_TRUE(SameReport(fast.last_report(), ref.last_report()))
        << "line " << i << ": " << line;
    const auto sa = fast.TakeStaticReports();
    const auto sb = ref.TakeStaticReports();
    EXPECT_EQ(sa.size(), sb.size()) << line;
    for (size_t k = 0; k < sa.size() && k < sb.size(); ++k) {
      EXPECT_TRUE(SameStatic(sa[k], sb[k])) << line;
    }
    EXPECT_TRUE(SameStats(fast.stats(), ref.stats())) << "line " << i;
    if (::testing::Test::HasFailure()) break;
  }
  return accepted;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) out.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::vector<std::string> SimulatedFeed(uint64_t seed, double corrupt_prob) {
  sim::World world = sim::BuildWorld(2024);
  sim::FleetConfig cfg;
  cfg.vessels = 40;
  cfg.duration = 4 * kHour;
  cfg.seed = seed;
  sim::FleetSimulator fleet(&world, cfg);
  const auto tuples = fleet.Generate();
  sim::NmeaFeedOptions opts;
  opts.corrupt_prob = corrupt_prob;
  opts.extended_class_b_prob = 0.5;  // many two-fragment type 19s
  opts.static_report_every = 4;      // many three-fragment type 5s
  opts.seed = seed + 1;
  return SplitLines(sim::EncodeTaggedNmeaFeed(tuples, fleet.fleet(), opts));
}

/// Re-frames the sentence part of a tagged line with a valid checksum, so
/// corruption reaches the assembler and the payload decoders instead of
/// stopping at the checksum.
std::string Reframe(const std::string& tagged) {
  const size_t tab = tagged.find('\t');
  const size_t bang = tagged.find('!', tab);
  const size_t star = tagged.rfind('*');
  if (tab == std::string::npos || bang == std::string::npos ||
      star == std::string::npos || star < bang) {
    return tagged;
  }
  const std::string body = tagged.substr(bang + 1, star - bang - 1);
  return tagged.substr(0, bang + 1) + body + "*" + NmeaChecksum(body);
}

std::string WithTagBlock(const std::string& tagged, Rng& rng) {
  const size_t tab = tagged.find('\t');
  if (tab == std::string::npos) return tagged;
  std::string content = "s:Stat_" + std::to_string(rng.NextBelow(9));
  if (rng.NextBool(0.8)) {
    content = "c:" + std::to_string(1500000000 + rng.NextBelow(100000000)) +
              "," + content;
  }
  std::string checksum = NmeaChecksum(content);
  if (rng.NextBool(0.1)) checksum[1] = checksum[1] == '0' ? '1' : '0';
  return tagged.substr(0, tab + 1) + "\\" + content + "*" + checksum + "\\" +
         tagged.substr(tab + 1);
}

/// Damages a line the way a lossy radio link and a hostile sender would:
/// flipped, dropped and inserted characters (re-framed half of the time so
/// the damage passes the checksum), cut lines, and tag blocks.
std::vector<std::string> Mutate(const std::vector<std::string>& lines,
                                uint64_t seed) {
  Rng rng(seed);
  static const std::string kAlphabet =
      "0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVW`abcdefghijklmnopqrstuvw,*!\\~";
  std::vector<std::string> out;
  for (const std::string& original : lines) {
    std::string line = original;
    const int op = static_cast<int>(rng.NextBelow(10));
    const size_t pos = line.empty() ? 0 : rng.NextBelow(line.size());
    switch (op) {
      case 0:
        line[pos] = kAlphabet[rng.NextBelow(kAlphabet.size())];
        break;
      case 1:
        line.erase(pos, 1);
        break;
      case 2:
        line.insert(pos, 1, kAlphabet[rng.NextBelow(kAlphabet.size())]);
        break;
      case 3:
        line.resize(pos);
        break;
      case 4:
        line = WithTagBlock(line, rng);
        break;
      case 5:
        out.push_back(line);  // duplicated fragment
        break;
      default:
        break;
    }
    if (op <= 2 && rng.NextBool(0.5)) line = Reframe(line);
    out.push_back(line);
  }
  return out;
}

TEST(AisDecodeDiffTest, CleanSimulatedFeeds) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    const auto lines = SimulatedFeed(seed, 0.0);
    EXPECT_GT(FeedBoth(lines), lines.size() / 2) << "seed " << seed;
  }
}

TEST(AisDecodeDiffTest, CorruptedSimulatedFeeds) {
  for (const double p : {0.002, 0.05, 0.3}) {
    const auto lines = SimulatedFeed(7, p);
    EXPECT_GT(FeedBoth(lines), 0u) << "corrupt_prob " << p;
  }
}

TEST(AisDecodeDiffTest, MutatedFeedsWithTagBlocks) {
  for (const uint64_t seed : {11u, 12u, 13u, 14u}) {
    FeedBoth(Mutate(SimulatedFeed(seed, 0.01), seed * 7919));
    if (HasFailure()) break;
  }
}

TEST(AisDecodeDiffTest, DearmorAndDecodersAgreeBitForBit) {
  Rng rng(4242);
  static const std::string kArmor =
      "0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVW`abcdefghijklmnopqrstuvw";
  for (int i = 0; i < 4000; ++i) {
    std::string payload;
    const size_t n = rng.NextBelow(90);
    for (size_t k = 0; k < n; ++k) {
      payload.push_back(kArmor[rng.NextBelow(kArmor.size())]);
    }
    // Mostly supported types ('1', 'B' = 18, 'C' = 19, '5'), some bad
    // characters.
    if (rng.NextBool(0.6) && !payload.empty()) {
      payload[0] = "123BC5"[rng.NextBelow(6)];
    }
    if (rng.NextBool(0.05) && !payload.empty()) payload[n / 2] = '~';
    const int fill = static_cast<int>(rng.NextBelow(7)) - 1;
    const auto fast = DearmorPayload(payload, fill);
    const auto ref = reference::DearmorPayload(payload, fill);
    ASSERT_EQ(fast.status().code(), ref.status().code()) << payload;
    if (!fast.ok()) continue;
    ASSERT_EQ(fast.value().size(), ref.value().size());
    for (size_t b = 0; b < ref.value().size(); ++b) {
      ASSERT_EQ(fast.value()[b], ref.value()[b] != 0) << payload << " bit " << b;
    }
    const auto pa = DecodePositionReport(fast.value());
    const auto pb = reference::DecodePositionReport(ref.value());
    ASSERT_EQ(pa.status().code(), pb.status().code()) << payload;
    if (pa.ok()) {
      ASSERT_TRUE(SameReport(pa.value(), pb.value())) << payload;
    }
    const auto va = DecodeStaticVoyageData(fast.value());
    const auto vb = reference::DecodeStaticVoyageData(ref.value());
    ASSERT_EQ(va.status().code(), vb.status().code()) << payload;
    if (va.ok()) {
      ASSERT_TRUE(SameStatic(va.value(), vb.value())) << payload;
    }
  }
}

}  // namespace
}  // namespace maritime::ais
