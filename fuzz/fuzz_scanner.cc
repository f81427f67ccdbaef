// Fuzz target for the AIS front door: DataScanner::FeedLine / FeedTagged /
// ScanTaggedLog, which consume raw NMEA text straight off the wire. The
// scanner's contract is that arbitrary input is *rejected*, never a crash,
// a sanitizer report, or a violated counter invariant. Every line is also
// run through the reference decoder (tests/ais_reference.h), and any
// difference in status code, tuple, report or counter aborts.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "ais/scanner.h"
#include "ais_reference.h"
#include "common/check.h"
#include "geo/geo_point.h"

namespace {

bool SameReport(const maritime::ais::PositionReport& a,
                const maritime::ais::PositionReport& b) {
  return a.type == b.type && a.mmsi == b.mmsi && a.nav_status == b.nav_status &&
         a.lon_deg == b.lon_deg && a.lat_deg == b.lat_deg &&
         a.sog_knots == b.sog_knots && a.cog_deg == b.cog_deg &&
         a.true_heading_deg == b.true_heading_deg &&
         a.utc_second == b.utc_second &&
         a.position_accuracy_high == b.position_accuracy_high &&
         a.ship_name == b.ship_name && a.ship_type == b.ship_type;
}

bool SameStats(const maritime::ais::ScannerStats& a,
               const maritime::ais::ScannerStats& b) {
  return a.lines == b.lines && a.framing_errors == b.framing_errors &&
         a.fragment_pending == b.fragment_pending &&
         a.fragment_errors == b.fragment_errors &&
         a.payload_errors == b.payload_errors &&
         a.unsupported_type == b.unsupported_type &&
         a.invalid_position == b.invalid_position &&
         a.static_reports == b.static_reports && a.accepted == b.accepted;
}

void Diverged(std::string_view line, const char* what) {
  std::fprintf(stderr, "decoders diverge (%s) on line: %.*s\n", what,
               static_cast<int>(line.size()), line.data());
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);

  // Whole-log path: exercises line splitting, tag parsing, fragment
  // reassembly, and payload decoding with carried state across lines.
  maritime::ais::DataScanner scanner;
  const auto tuples = scanner.ScanTaggedLog(text);
  for (const auto& t : tuples) {
    // Every accepted tuple must carry an in-range position (the Data
    // Scanner's cleaning guarantee from the paper).
    MARITIME_DCHECK(maritime::geo::IsValidPosition(t.pos));
  }
  const auto& stats = scanner.stats();
  MARITIME_DCHECK(stats.accepted == tuples.size());
  MARITIME_DCHECK(stats.accepted <= stats.lines);

  // Differential: the same lines, one at a time, through both decoders.
  maritime::ais::DataScanner fast;
  maritime::ais::reference::DataScanner ref;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    start = end + 1;
    const auto a = fast.FeedTagged(line);
    const auto b = ref.FeedTagged(line);
    if (a.status().code() != b.status().code()) Diverged(line, "status");
    if (a.ok() && (a.value().mmsi != b.value().mmsi ||
                   a.value().pos.lon != b.value().pos.lon ||
                   a.value().pos.lat != b.value().pos.lat ||
                   a.value().tau != b.value().tau)) {
      Diverged(line, "tuple");
    }
    if (!SameReport(fast.last_report(), ref.last_report())) {
      Diverged(line, "last_report");
    }
    if (fast.TakeStaticReports().size() != ref.TakeStaticReports().size()) {
      Diverged(line, "static reports");
    }
    if (!SameStats(fast.stats(), ref.stats())) Diverged(line, "stats");
  }

  // Single-line path with a fixed arrival stamp: reaches FeedLine framing
  // states that the tagged wrapper rejects earlier.
  maritime::ais::DataScanner line_scanner;
  maritime::ais::reference::DataScanner line_ref;
  const auto a = line_scanner.FeedLine(text, 0);
  const auto b = line_ref.FeedLine(text, 0);
  if (a.status().code() != b.status().code()) Diverged(text, "FeedLine");
  (void)line_scanner.TakeStaticReports();
  return 0;
}
