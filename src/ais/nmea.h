#ifndef MARITIME_AIS_NMEA_H_
#define MARITIME_AIS_NMEA_H_

#include <array>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/time.h"

namespace maritime::ais {

/// Largest fragment count a valid AIVDM group can declare: the NMEA 0183
/// fragment-count field is a single digit. ParseSentence rejects larger
/// values so the FragmentAssembler's per-group buffer stays bounded.
inline constexpr int kMaxFragments = 9;

/// One parsed NMEA 0183 AIVDM/AIVDO sentence, optionally behind an NMEA 4.0
/// tag block:
/// `[\<tag block>*hh\]!AIVDM,<total>,<num>,<seq>,<chan>,<payload>,<fill>*hh`
///
/// `talker` and `payload` view the line passed to ParseSentence (or whatever
/// the caller assigned), so a sentence is valid only while that text is.
struct NmeaSentence {
  std::string_view talker = "AIVDM";  ///< "AIVDM" (received) or "AIVDO".
  int fragment_count = 1;        ///< Total fragments of the message.
  int fragment_index = 1;        ///< 1-based index of this fragment.
  int sequence_id = -1;          ///< Multi-fragment group id; -1 when absent.
  char channel = 'A';            ///< Radio channel ('A'/'B'); '\0' when absent.
  std::string_view payload;      ///< Armored 6-bit payload.
  int fill_bits = 0;             ///< Pad bits in the final payload character.
  /// The `c:` field of an NMEA 4.0 tag block (UNIX seconds), when present.
  std::optional<Timestamp> tag_time;
};

/// XOR checksum over the characters between '!' and '*', as two uppercase
/// hex digits. (Parsing accepts either casing: real AIS feeds emit
/// lowercase hex, e.g. `*3f`.)
std::string NmeaChecksum(std::string_view body);

/// Renders the sentence with a correct checksum (no tag block).
std::string FormatSentence(const NmeaSentence& s);

/// Parses and validates one sentence line, with an optional leading NMEA 4.0
/// tag block (`\c:1556260129,s:Sat_A*3D\!AIVDM,...`). The tag block's own
/// checksum is verified; only its `c:` field is interpreted. Fails with
/// kCorruption on framing or checksum errors (the paper's Data Scanner
/// discards such messages). Allocates nothing on success.
Result<NmeaSentence> ParseSentence(std::string_view line);

/// Reassembles multi-fragment AIVDM messages. Feed sentences in arrival
/// order; when a message is complete, returns the concatenated armored
/// payload plus the final fragment's fill bits.
///
/// Only fragments of multi-part messages are copied, into per-group buffers
/// that are recycled; once those buffers have grown to the feed's message
/// sizes, Add() does not allocate.
class FragmentAssembler {
 public:
  struct Assembled {
    /// Views either the single-fragment sentence's payload or the
    /// assembler's own buffer; valid until the next Add() or Clear().
    std::string_view payload;
    int fill_bits = 0;
  };

  /// Bounds on the pending-group buffer. When a fragment of a multi-part
  /// message is lost on the air, its group would otherwise never complete
  /// and never be erased; stale groups are evicted instead.
  struct Options {
    /// Evict a partial group once this many subsequent Add() calls have
    /// passed without it completing (a message's fragments arrive within a
    /// handful of sentences of each other on real feeds).
    uint64_t max_group_age_adds = 256;
    /// Hard cap on simultaneously pending groups (at least 1); the least
    /// recently touched group is evicted first.
    size_t max_pending_groups = 64;
  };

  FragmentAssembler() = default;
  explicit FragmentAssembler(Options options) : options_(options) {}

  /// Returns a value when `s` completes a message (single-fragment sentences
  /// complete immediately); kNotFound-status when more fragments are pending;
  /// kCorruption when the fragment is inconsistent with its group.
  Result<Assembled> Add(const NmeaSentence& s);

  /// Number of partially assembled groups currently buffered.
  size_t pending_groups() const { return pending_; }

  /// Incomplete groups evicted so far (lost-fragment indicator; exposed so
  /// operators can monitor feed quality).
  uint64_t evicted_groups() const { return evicted_groups_; }

  /// Drops partial groups (e.g. between replayed streams).
  void Clear();

 private:
  /// One group slot; inactive slots keep their string capacity for reuse.
  struct Group {
    bool active = false;
    int sequence_id = 0;
    char channel = '\0';
    int fragment_count = 0;  ///< 0 until the first fragment sizes the group.
    int received = 0;
    int fill_bits = 0;
    uint64_t last_add_seq = 0;  ///< Value of add_seq_ when last touched.
    std::array<std::string, kMaxFragments> fragments;
    /// Empties the group's fragments, keeping their capacity.
    void Reset();
  };
  Group& FindOrInsert(int sequence_id, char channel);
  void Release(Group& g);
  void EvictStale();

  Options options_;
  uint64_t add_seq_ = 0;
  uint64_t evicted_groups_ = 0;
  size_t pending_ = 0;
  // Groups are keyed by sequence id + channel (sequence ids are reused over
  // time; a stale group is restarted when a new first fragment arrives).
  // At most max_pending_groups + 1 slots exist, so lookups scan a short
  // array.
  std::vector<Group> groups_;
  std::string assembled_;  ///< Reused output buffer of completed groups.
};

}  // namespace maritime::ais

#endif  // MARITIME_AIS_NMEA_H_
