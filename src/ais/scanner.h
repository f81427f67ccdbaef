#ifndef MARITIME_AIS_SCANNER_H_
#define MARITIME_AIS_SCANNER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ais/messages.h"
#include "ais/nmea.h"
#include "common/result.h"
#include "stream/position.h"

namespace maritime::ais {

/// Counters describing what the scanner did with its input; exposed so
/// operators can monitor feed quality (the paper stresses AIS data "is not
/// noise-free; messages may be delayed, intermittent, or conflicting").
struct ScannerStats {
  uint64_t lines = 0;              ///< Input lines seen.
  uint64_t framing_errors = 0;     ///< Bad '!'/'*' framing or checksum.
  uint64_t fragment_pending = 0;   ///< Fragments awaiting their group.
  uint64_t fragment_errors = 0;    ///< Inconsistent multi-fragment groups.
  uint64_t payload_errors = 0;     ///< De-armoring / truncation failures.
  uint64_t unsupported_type = 0;   ///< Types other than 1/2/3/5/18/19.
  uint64_t invalid_position = 0;   ///< Lon/lat sentinel or out of range.
  uint64_t static_reports = 0;     ///< Type 5 static/voyage messages decoded.
  uint64_t accepted = 0;           ///< Tuples emitted downstream.
};

/// The Data Scanner of Figure 1: decodes each AIS message, keeps the four
/// attributes ⟨MMSI, Lon, Lat, τ⟩, and cleans transmission distortions
/// (discarding messages with bad checksums, unsupported types, or sentinel
/// coordinates).
///
/// AIS position reports carry only the UTC second of the fix, so a receiver
/// timestamps each line on arrival. `FeedLine` therefore takes the line's
/// arrival timestamp; `FeedTagged` parses the `"<tau>\t<sentence>"` format
/// our simulator and log files use. A line that carries an NMEA 4.0 tag
/// block with a `c:` field is stamped with that time instead.
///
/// Decoding a position report (types 1/2/3/18) allocates nothing once the
/// scanner has warmed up: the sentence is parsed in place, the payload is
/// de-armored into a kept word buffer, and the report is decoded into the
/// spare one of two kept reports, which becomes last_report() on acceptance.
class DataScanner {
 public:
  DataScanner() = default;

  /// Processes one NMEA line received at `arrival`. Returns a tuple when the
  /// line completes a valid position report; a non-OK status otherwise
  /// (kNotFound simply means "fragment buffered, nothing to emit yet").
  Result<stream::PositionTuple> FeedLine(std::string_view line,
                                         Timestamp arrival);

  /// Processes a line in the tagged format `"<tau>\t!AIVDM,..."`.
  Result<stream::PositionTuple> FeedTagged(std::string_view tagged_line);

  /// Decodes a whole tagged log (one sentence per line) and returns the
  /// accepted tuples in arrival order.
  std::vector<stream::PositionTuple> ScanTaggedLog(std::string_view log);

  /// Full decoded report of the last accepted tuple (for consumers that need
  /// SOG/COG or ship metadata besides the positional tuple).
  const PositionReport& last_report() const { return reports_[current_]; }

  /// Type 5 static/voyage messages decoded so far; consuming them clears the
  /// buffer. Feed these to the knowledge base (see
  /// surveillance::ApplyStaticVoyageData) to learn ship types and draughts
  /// from the stream itself.
  std::vector<StaticVoyageData> TakeStaticReports() {
    return std::exchange(static_reports_, {});
  }

  const ScannerStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ScannerStats{}; }

 private:
  FragmentAssembler assembler_;
  BitBuffer bits_;  ///< De-armored payload of the current line.
  /// reports_[current_] is last_report(); the other is the decode target.
  PositionReport reports_[2];
  int current_ = 0;
  std::vector<StaticVoyageData> static_reports_;
  ScannerStats stats_;
};

}  // namespace maritime::ais

#endif  // MARITIME_AIS_SCANNER_H_
