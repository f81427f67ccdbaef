#include "ais/nmea.h"

#include <limits>

#include "common/check.h"
#include "common/strings.h"

namespace maritime::ais {
namespace {

constexpr char kHexDigits[] = "0123456789ABCDEF";

unsigned char XorSum(std::string_view body) {
  unsigned char sum = 0;
  for (char c : body) sum ^= static_cast<unsigned char>(c);
  return sum;
}

char Upper(char c) {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
}

/// Case-insensitive compare of two hex digits against the XOR of `body`:
/// receivers in the wild emit lowercase hex (`*3f`), which is just as valid
/// as the uppercase we generate.
bool ChecksumMatches(std::string_view body, std::string_view hex) {
  const unsigned char sum = XorSum(body);
  return Upper(hex[0]) == kHexDigits[sum >> 4] &&
         Upper(hex[1]) == kHexDigits[sum & 15];
}

/// Numeric AIVDM field; `fallback` when empty or not a small decimal.
int ParseSmallInt(std::string_view f, int fallback) {
  if (f.empty()) return fallback;
  int v = 0;
  for (char c : f) {
    if (c < '0' || c > '9') return fallback;
    // Every numeric AIVDM field is tiny (fragment counts, sequence ids,
    // fill bits); a value this large is corrupt, and accumulating further
    // would overflow `int` — undefined behavior on a hostile feed.
    if (v > 999999) return fallback;
    v = v * 10 + (c - '0');
  }
  return v;
}

/// A tag block `c:` value: one or more decimal digits that fit an int64.
bool ParseTagTime(std::string_view s, Timestamp* out) {
  if (s.empty()) return false;
  constexpr Timestamp kMax = std::numeric_limits<Timestamp>::max();
  Timestamp v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const Timestamp digit = c - '0';
    if (v > (kMax - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

/// Consumes a leading `\<fields>*hh\` tag block from `*line`, if any.
/// Grammar: fields are `key:value` separated by ','; only `c` (UNIX
/// seconds) is interpreted, every other key is skipped.
Status ParseTagBlock(std::string_view* line, std::optional<Timestamp>* time) {
  const size_t end = line->find('\\', 1);
  if (end == std::string_view::npos) {
    return Status::Corruption("unterminated tag block");
  }
  const std::string_view tag = line->substr(1, end - 1);
  const size_t star = tag.rfind('*');
  if (star == std::string_view::npos || star + 3 != tag.size()) {
    return Status::Corruption("malformed tag block checksum");
  }
  const std::string_view content = tag.substr(0, star);
  if (!ChecksumMatches(content, tag.substr(star + 1))) {
    return Status::Corruption("tag block checksum mismatch");
  }
  size_t start = 0;
  while (true) {
    const size_t comma = content.find(',', start);
    const std::string_view field = content.substr(start, comma - start);
    const size_t colon = field.find(':');
    if (colon == std::string_view::npos) {
      return Status::Corruption("malformed tag block field");
    }
    if (field.substr(0, colon) == "c") {
      Timestamp t = 0;
      if (!ParseTagTime(field.substr(colon + 1), &t)) {
        return Status::Corruption("malformed tag block time");
      }
      *time = t;
    }
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  line->remove_prefix(end + 1);
  return Status::OK();
}

}  // namespace

std::string NmeaChecksum(std::string_view body) {
  const unsigned char sum = XorSum(body);
  return std::string{kHexDigits[sum >> 4], kHexDigits[sum & 15]};
}

std::string FormatSentence(const NmeaSentence& s) {
  std::string body(s.talker);
  body += ',';
  body += std::to_string(s.fragment_count);
  body += ',';
  body += std::to_string(s.fragment_index);
  body += ',';
  if (s.sequence_id >= 0) body += std::to_string(s.sequence_id);
  body += ',';
  if (s.channel != '\0') body += s.channel;
  body += ',';
  body += s.payload;
  body += ',';
  body += std::to_string(s.fill_bits);
  return "!" + body + "*" + NmeaChecksum(body);
}

Result<NmeaSentence> ParseSentence(std::string_view line) {
  line = StripWhitespace(line);
  NmeaSentence s;
  if (!line.empty() && line[0] == '\\') {
    if (Status st = ParseTagBlock(&line, &s.tag_time); !st.ok()) return st;
  }
  if (line.empty() || line[0] != '!') {
    return Status::Corruption("sentence does not start with '!'");
  }
  const size_t star = line.rfind('*');
  if (star == std::string_view::npos || star + 3 != line.size()) {
    return Status::Corruption("missing or malformed checksum");
  }
  const std::string_view body = line.substr(1, star - 1);
  // One pass over the body computes the checksum and splits the fields.
  std::string_view fields[7];
  size_t count = 0;
  size_t start = 0;
  unsigned char sum = 0;
  for (size_t i = 0; i < body.size(); ++i) {
    const char c = body[i];
    sum ^= static_cast<unsigned char>(c);
    if (c == ',') {
      if (count < 7) fields[count] = body.substr(start, i - start);
      ++count;
      start = i + 1;
    }
  }
  if (count < 7) fields[count] = body.substr(start);
  ++count;
  if (Upper(line[star + 1]) != kHexDigits[sum >> 4] ||
      Upper(line[star + 2]) != kHexDigits[sum & 15]) {
    return Status::Corruption("checksum mismatch");
  }
  if (count != 7) {
    return Status::Corruption(StrPrintf("expected 7 fields, got %zu", count));
  }
  s.talker = fields[0];
  if (s.talker != "AIVDM" && s.talker != "AIVDO") {
    return Status::Corruption("unknown talker '" + std::string(s.talker) +
                              "'");
  }
  s.fragment_count = ParseSmallInt(fields[1], 0);
  s.fragment_index = ParseSmallInt(fields[2], 0);
  s.sequence_id = ParseSmallInt(fields[3], -1);
  s.channel = fields[4].empty() ? '\0' : fields[4][0];
  s.payload = fields[5];
  s.fill_bits = ParseSmallInt(fields[6], -1);
  if (s.fragment_count < 1 || s.fragment_index < 1 ||
      s.fragment_index > s.fragment_count) {
    return Status::Corruption("inconsistent fragment numbering");
  }
  // The NMEA fragment-count field is a single digit, so 9 bounds any valid
  // sentence. Without this cap a hostile count (e.g. 999999) would size the
  // FragmentAssembler's fragment table to match.
  if (s.fragment_count > kMaxFragments) {
    return Status::Corruption(
        StrPrintf("fragment count %d exceeds NMEA limit of %d",
                  s.fragment_count, kMaxFragments));
  }
  if (s.fill_bits < 0 || s.fill_bits > 5) {
    return Status::Corruption("fill bits outside [0,5]");
  }
  if (s.fragment_count > 1 && s.sequence_id < 0) {
    return Status::Corruption("multi-fragment sentence without sequence id");
  }
  return s;
}

Result<FragmentAssembler::Assembled> FragmentAssembler::Add(
    const NmeaSentence& s) {
  ++add_seq_;
  EvictStale();
  if (s.fragment_count == 1) return Assembled{s.payload, s.fill_bits};
  Group& group = FindOrInsert(s.sequence_id, s.channel);
  group.last_add_seq = add_seq_;
  // Re-run eviction after a possible insert so the cap holds; the group
  // just touched carries the newest sequence number and is never the
  // eviction victim.
  EvictStale();
  if (s.fragment_index == 1 && group.fragment_count != 0 &&
      !group.fragments[0].empty()) {
    // A second first-fragment means a reused sequence id: the stale partial
    // group restarts. (A first fragment merely arriving after a later one
    // is legal out-of-order delivery and joins the existing group.)
    group.Reset();
  }
  if (group.fragment_count == 0) group.fragment_count = s.fragment_count;
  if (group.fragment_count != s.fragment_count) {
    Release(group);
    return Status::Corruption("fragment count changed within group");
  }
  std::string& slot =
      group.fragments[static_cast<size_t>(s.fragment_index - 1)];
  if (!slot.empty()) {
    Release(group);
    return Status::Corruption("duplicate fragment index within group");
  }
  slot.assign(s.payload);
  ++group.received;
  if (s.fragment_index == s.fragment_count) group.fill_bits = s.fill_bits;
  if (group.received < s.fragment_count) {
    // Short enough for the small-string buffer: pending fragments are
    // routine on every multi-part message and must not allocate.
    return Status::NotFound("more fragments");
  }
  assembled_.clear();
  for (int i = 0; i < group.fragment_count; ++i) {
    assembled_ += group.fragments[static_cast<size_t>(i)];
  }
  const int fill_bits = group.fill_bits;
  Release(group);
  return Assembled{assembled_, fill_bits};
}

FragmentAssembler::Group& FragmentAssembler::FindOrInsert(int sequence_id,
                                                          char channel) {
  Group* free_slot = nullptr;
  for (Group& g : groups_) {
    if (!g.active) {
      if (free_slot == nullptr) free_slot = &g;
    } else if (g.sequence_id == sequence_id && g.channel == channel) {
      return g;
    }
  }
  if (free_slot == nullptr) free_slot = &groups_.emplace_back();
  free_slot->active = true;
  free_slot->sequence_id = sequence_id;
  free_slot->channel = channel;
  ++pending_;
  return *free_slot;
}

void FragmentAssembler::Group::Reset() {
  for (std::string& f : fragments) f.clear();
  fragment_count = 0;
  received = 0;
  fill_bits = 0;
}

void FragmentAssembler::Release(Group& g) {
  MARITIME_DCHECK(g.active);
  g.Reset();
  g.active = false;
  --pending_;
}

void FragmentAssembler::Clear() {
  for (Group& g : groups_) {
    if (g.active) Release(g);
  }
}

void FragmentAssembler::EvictStale() {
  MARITIME_DCHECK(options_.max_pending_groups >= 1);
  // Age out groups whose missing fragments are evidently lost; without this
  // the pending buffer grows without bound on a lossy feed.
  for (Group& g : groups_) {
    if (g.active && add_seq_ - g.last_add_seq > options_.max_group_age_adds) {
      Release(g);
      ++evicted_groups_;
    }
  }
  while (pending_ > options_.max_pending_groups) {
    Group* oldest = nullptr;
    for (Group& g : groups_) {
      if (g.active &&
          (oldest == nullptr || g.last_add_seq < oldest->last_add_seq)) {
        oldest = &g;
      }
    }
    Release(*oldest);
    ++evicted_groups_;
  }
}

}  // namespace maritime::ais
