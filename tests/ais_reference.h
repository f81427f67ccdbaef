#ifndef MARITIME_TESTS_AIS_REFERENCE_H_
#define MARITIME_TESTS_AIS_REFERENCE_H_

// Reference AIS decoder: the straightforward implementation the production
// decoder in src/ais/ replaced. It splits fields into a vector, copies every
// payload into a std::string and de-armors into one byte per bit, which makes
// each step easy to check by eye. The differential test and the scanner fuzz
// harness run it next to the production DataScanner and require identical
// output. It is not linked into the library.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ais/messages.h"
#include "ais/scanner.h"
#include "common/result.h"
#include "stream/position.h"

namespace maritime::ais::reference {

struct NmeaSentence {
  std::string talker = "AIVDM";
  int fragment_count = 1;
  int fragment_index = 1;
  int sequence_id = -1;
  char channel = 'A';
  std::string payload;
  int fill_bits = 0;
  /// Value of the NMEA 4.0 tag block's `c:` field, when present.
  bool has_tag_time = false;
  Timestamp tag_time = 0;
};

/// Parses an optional `\<tag block>*hh\` prefix plus one AIVDM/AIVDO sentence.
Result<NmeaSentence> ParseSentence(std::string_view line);

class FragmentAssembler {
 public:
  struct Assembled {
    std::string payload;
    int fill_bits = 0;
  };
  Result<Assembled> Add(const NmeaSentence& s);

 private:
  struct Pending {
    std::vector<std::string> fragments;
    int received = 0;
    int fill_bits = 0;
    uint64_t last_add_seq = 0;
  };
  void EvictStale();

  uint64_t max_group_age_adds_ = 256;
  size_t max_pending_groups_ = 64;
  uint64_t add_seq_ = 0;
  std::map<std::pair<int, char>, Pending> pending_;
};

/// One element per bit (0/1).
Result<std::vector<uint8_t>> DearmorPayload(const std::string& payload,
                                            int fill_bits);

/// Big-endian reader over one-byte-per-bit storage. Reads past the end
/// return zeros and set overflow().
class BitReader {
 public:
  explicit BitReader(const std::vector<uint8_t>& bits) : bits_(bits) {}
  uint64_t ReadUnsigned(int width);
  int64_t ReadSigned(int width);
  std::string ReadSixbitString(int chars);
  void Skip(int width);
  bool overflow() const { return overflow_; }

 private:
  const std::vector<uint8_t>& bits_;
  size_t pos_ = 0;
  bool overflow_ = false;
};

int PeekMessageType(const std::vector<uint8_t>& bits);
Result<PositionReport> DecodePositionReport(const std::vector<uint8_t>& bits);
Result<StaticVoyageData> DecodeStaticVoyageData(
    const std::vector<uint8_t>& bits);

/// The Data Scanner over the reference pieces, with the production
/// scanner's public surface.
class DataScanner {
 public:
  Result<stream::PositionTuple> FeedLine(std::string_view line,
                                         Timestamp arrival);
  Result<stream::PositionTuple> FeedTagged(std::string_view tagged_line);
  const PositionReport& last_report() const { return last_report_; }
  std::vector<StaticVoyageData> TakeStaticReports() {
    return std::exchange(static_reports_, {});
  }
  const ScannerStats& stats() const { return stats_; }

 private:
  FragmentAssembler assembler_;
  PositionReport last_report_;
  std::vector<StaticVoyageData> static_reports_;
  ScannerStats stats_;
};

}  // namespace maritime::ais::reference

#endif  // MARITIME_TESTS_AIS_REFERENCE_H_
