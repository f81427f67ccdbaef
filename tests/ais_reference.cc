#include "ais_reference.h"

#include <limits>

#include "ais/nmea.h"
#include "common/strings.h"

namespace maritime::ais::reference {
namespace {

constexpr double kCoordScale = 600000.0;

int DearmorChar(char c) {
  const int x = static_cast<unsigned char>(c);
  if (x >= 48 && x <= 87) return x - 48;    // '0'..'W' -> 0..39
  if (x >= 96 && x <= 119) return x - 56;   // '`'..'w' -> 40..63
  return -1;
}

char Upper(char c) {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
}

bool ChecksumMatches(std::string_view body, std::string_view hex) {
  const std::string expected = NmeaChecksum(body);
  return Upper(hex[0]) == expected[0] && Upper(hex[1]) == expected[1];
}

/// Parses a non-empty run of decimal digits into a non-negative int64.
bool ParseTime(std::string_view s, Timestamp* out) {
  if (s.empty()) return false;
  Timestamp v = 0;
  constexpr Timestamp kMax = std::numeric_limits<Timestamp>::max();
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const Timestamp digit = c - '0';
    if (v > (kMax - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

std::optional<double> SogFromRaw(uint64_t raw) {
  if (raw == kSogNotAvailableRaw) return std::nullopt;
  return static_cast<double>(raw) / 10.0;
}

std::optional<double> CogFromRaw(uint64_t raw) {
  if (raw >= kCogNotAvailableRaw) return std::nullopt;
  return static_cast<double>(raw) / 10.0;
}

std::optional<int> HeadingFromRaw(uint64_t raw) {
  if (raw >= kHeadingNotAvailable) return std::nullopt;
  return static_cast<int>(raw);
}

}  // namespace

Result<NmeaSentence> ParseSentence(std::string_view line) {
  line = StripWhitespace(line);
  NmeaSentence s;
  if (!line.empty() && line[0] == '\\') {
    const size_t end = line.find('\\', 1);
    if (end == std::string_view::npos) {
      return Status::Corruption("unterminated tag block");
    }
    const std::string_view tag = line.substr(1, end - 1);
    const size_t star = tag.rfind('*');
    if (star == std::string_view::npos || star + 3 != tag.size()) {
      return Status::Corruption("malformed tag block checksum");
    }
    const std::string_view content = tag.substr(0, star);
    if (!ChecksumMatches(content, tag.substr(star + 1))) {
      return Status::Corruption("tag block checksum mismatch");
    }
    for (const std::string_view field : SplitString(content, ',')) {
      const size_t colon = field.find(':');
      if (colon == std::string_view::npos) {
        return Status::Corruption("malformed tag block field");
      }
      if (field.substr(0, colon) == "c") {
        if (!ParseTime(field.substr(colon + 1), &s.tag_time)) {
          return Status::Corruption("malformed tag block time");
        }
        s.has_tag_time = true;
      }
    }
    line = line.substr(end + 1);
  }
  if (line.empty() || line[0] != '!') {
    return Status::Corruption("sentence does not start with '!'");
  }
  const size_t star = line.rfind('*');
  if (star == std::string_view::npos || star + 3 != line.size()) {
    return Status::Corruption("missing or malformed checksum");
  }
  const std::string_view body = line.substr(1, star - 1);
  if (!ChecksumMatches(body, line.substr(star + 1, 2))) {
    return Status::Corruption("checksum mismatch");
  }
  const auto fields = SplitString(body, ',');
  if (fields.size() != 7) {
    return Status::Corruption(
        StrPrintf("expected 7 fields, got %zu", fields.size()));
  }
  s.talker = std::string(fields[0]);
  if (s.talker != "AIVDM" && s.talker != "AIVDO") {
    return Status::Corruption("unknown talker '" + s.talker + "'");
  }
  auto parse_int = [](std::string_view f, int fallback) {
    if (f.empty()) return fallback;
    int v = 0;
    for (char c : f) {
      if (c < '0' || c > '9') return fallback;
      if (v > 999999) return fallback;
      v = v * 10 + (c - '0');
    }
    return v;
  };
  s.fragment_count = parse_int(fields[1], 0);
  s.fragment_index = parse_int(fields[2], 0);
  s.sequence_id = parse_int(fields[3], -1);
  s.channel = fields[4].empty() ? '\0' : fields[4][0];
  s.payload = std::string(fields[5]);
  s.fill_bits = parse_int(fields[6], -1);
  if (s.fragment_count < 1 || s.fragment_index < 1 ||
      s.fragment_index > s.fragment_count) {
    return Status::Corruption("inconsistent fragment numbering");
  }
  if (s.fragment_count > kMaxFragments) {
    return Status::Corruption("fragment count exceeds NMEA limit");
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
  const auto key = std::make_pair(s.sequence_id, s.channel);
  auto& group = pending_[key];
  group.last_add_seq = add_seq_;
  EvictStale();
  if (s.fragment_index == 1 && !group.fragments.empty() &&
      !group.fragments[0].empty()) {
    const uint64_t seq = group.last_add_seq;
    group = Pending{};
    group.last_add_seq = seq;
  }
  if (group.fragments.empty()) {
    group.fragments.resize(static_cast<size_t>(s.fragment_count));
  }
  if (static_cast<int>(group.fragments.size()) != s.fragment_count) {
    pending_.erase(key);
    return Status::Corruption("fragment count changed within group");
  }
  auto& slot = group.fragments[static_cast<size_t>(s.fragment_index - 1)];
  if (!slot.empty()) {
    pending_.erase(key);
    return Status::Corruption("duplicate fragment index within group");
  }
  slot = s.payload;
  ++group.received;
  if (s.fragment_index == s.fragment_count) group.fill_bits = s.fill_bits;
  if (group.received < s.fragment_count) {
    return Status::NotFound("awaiting more fragments");
  }
  Assembled out;
  for (const auto& f : group.fragments) out.payload += f;
  out.fill_bits = group.fill_bits;
  pending_.erase(key);
  return out;
}

void FragmentAssembler::EvictStale() {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (add_seq_ - it->second.last_add_seq > max_group_age_adds_) {
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  while (pending_.size() > max_pending_groups_) {
    auto oldest = pending_.begin();
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (it->second.last_add_seq < oldest->second.last_add_seq) oldest = it;
    }
    pending_.erase(oldest);
  }
}

Result<std::vector<uint8_t>> DearmorPayload(const std::string& payload,
                                            int fill_bits) {
  if (fill_bits < 0 || fill_bits > 5) {
    return Status::InvalidArgument("fill_bits outside [0,5]");
  }
  std::vector<uint8_t> bits;
  for (char c : payload) {
    const int v = DearmorChar(c);
    if (v < 0) return Status::Corruption("invalid armored payload character");
    for (int i = 5; i >= 0; --i) {
      bits.push_back(static_cast<uint8_t>((v >> i) & 1));
    }
  }
  if (static_cast<size_t>(fill_bits) > bits.size()) {
    return Status::Corruption("fill_bits exceed payload size");
  }
  bits.resize(bits.size() - static_cast<size_t>(fill_bits));
  return bits;
}

uint64_t BitReader::ReadUnsigned(int width) {
  uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    uint8_t bit = 0;
    if (pos_ < bits_.size()) {
      bit = bits_[pos_];
    } else {
      overflow_ = true;
    }
    v = (v << 1) | bit;
    ++pos_;
  }
  return v;
}

int64_t BitReader::ReadSigned(int width) {
  uint64_t v = ReadUnsigned(width);
  if (width < 64 && (v & (1ULL << (width - 1)))) v |= ~((1ULL << width) - 1);
  return static_cast<int64_t>(v);
}

std::string BitReader::ReadSixbitString(int chars) {
  constexpr char kAlphabet[] =
      "@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_ !\"#$%&'()*+,-./0123456789:;<=>?";
  std::string out;
  for (int i = 0; i < chars; ++i) out.push_back(kAlphabet[ReadUnsigned(6) & 63u]);
  while (!out.empty() && (out.back() == '@' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

void BitReader::Skip(int width) {
  pos_ += static_cast<size_t>(width);
  if (pos_ > bits_.size()) overflow_ = true;
}

int PeekMessageType(const std::vector<uint8_t>& bits) {
  if (bits.size() < 6) return -1;
  BitReader rd(bits);
  return static_cast<int>(rd.ReadUnsigned(6));
}

Result<PositionReport> DecodePositionReport(const std::vector<uint8_t>& bits) {
  if (bits.size() < 6) return Status::Corruption("payload shorter than 6 bits");
  BitReader rd(bits);
  const int type = static_cast<int>(rd.ReadUnsigned(6));
  if (!IsSupportedType(type)) {
    return Status::Unimplemented(StrPrintf("message type %d", type));
  }
  PositionReport r;
  r.type = static_cast<MessageType>(type);
  rd.Skip(2);
  r.mmsi = static_cast<uint32_t>(rd.ReadUnsigned(30));
  if (type <= 3) {
    r.nav_status = static_cast<NavStatus>(rd.ReadUnsigned(4));
    rd.Skip(8);
    r.sog_knots = SogFromRaw(rd.ReadUnsigned(10));
    r.position_accuracy_high = rd.ReadUnsigned(1) != 0;
    r.lon_deg = static_cast<double>(rd.ReadSigned(28)) / kCoordScale;
    r.lat_deg = static_cast<double>(rd.ReadSigned(27)) / kCoordScale;
    r.cog_deg = CogFromRaw(rd.ReadUnsigned(12));
    r.true_heading_deg = HeadingFromRaw(rd.ReadUnsigned(9));
    r.utc_second = static_cast<int>(rd.ReadUnsigned(6));
    rd.Skip(2 + 3 + 1 + 19);
    if (rd.overflow()) return Status::Corruption("truncated class A payload");
  } else {
    rd.Skip(8);
    r.sog_knots = SogFromRaw(rd.ReadUnsigned(10));
    r.position_accuracy_high = rd.ReadUnsigned(1) != 0;
    r.lon_deg = static_cast<double>(rd.ReadSigned(28)) / kCoordScale;
    r.lat_deg = static_cast<double>(rd.ReadSigned(27)) / kCoordScale;
    r.cog_deg = CogFromRaw(rd.ReadUnsigned(12));
    r.true_heading_deg = HeadingFromRaw(rd.ReadUnsigned(9));
    r.utc_second = static_cast<int>(rd.ReadUnsigned(6));
    if (type == 18) {
      rd.Skip(2 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 20);
      if (rd.overflow()) return Status::Corruption("truncated type 18 payload");
    } else {
      rd.Skip(4);
      r.ship_name = rd.ReadSixbitString(20);
      r.ship_type = static_cast<int>(rd.ReadUnsigned(8));
      rd.Skip(9 + 9 + 6 + 6 + 4 + 1 + 1 + 1 + 4);
      if (rd.overflow()) return Status::Corruption("truncated type 19 payload");
    }
  }
  return r;
}

Result<StaticVoyageData> DecodeStaticVoyageData(
    const std::vector<uint8_t>& bits) {
  if (bits.size() < 6) return Status::Corruption("payload shorter than 6 bits");
  BitReader rd(bits);
  const int type = static_cast<int>(rd.ReadUnsigned(6));
  if (type != 5) {
    return Status::InvalidArgument(
        StrPrintf("message type %d is not static/voyage data", type));
  }
  StaticVoyageData d;
  rd.Skip(2);
  d.mmsi = static_cast<uint32_t>(rd.ReadUnsigned(30));
  rd.Skip(2);
  d.imo_number = static_cast<uint32_t>(rd.ReadUnsigned(30));
  d.call_sign = rd.ReadSixbitString(7);
  d.ship_name = rd.ReadSixbitString(20);
  d.ship_type = static_cast<int>(rd.ReadUnsigned(8));
  rd.Skip(9 + 9 + 6 + 6 + 4);
  d.eta_month = static_cast<int>(rd.ReadUnsigned(4));
  d.eta_day = static_cast<int>(rd.ReadUnsigned(5));
  d.eta_hour = static_cast<int>(rd.ReadUnsigned(5));
  d.eta_minute = static_cast<int>(rd.ReadUnsigned(6));
  d.draught_m = static_cast<double>(rd.ReadUnsigned(8)) / 10.0;
  d.destination = rd.ReadSixbitString(20);
  rd.Skip(2);
  if (rd.overflow()) return Status::Corruption("truncated type 5 payload");
  return d;
}

Result<stream::PositionTuple> DataScanner::FeedLine(std::string_view line,
                                                    Timestamp arrival) {
  ++stats_.lines;
  Result<NmeaSentence> sentence = ParseSentence(line);
  if (!sentence.ok()) {
    ++stats_.framing_errors;
    return sentence.status();
  }
  if (sentence.value().has_tag_time) arrival = sentence.value().tag_time;
  Result<FragmentAssembler::Assembled> assembled =
      assembler_.Add(sentence.value());
  if (!assembled.ok()) {
    if (assembled.status().code() == StatusCode::kNotFound) {
      ++stats_.fragment_pending;
    } else {
      ++stats_.fragment_errors;
    }
    return assembled.status();
  }
  Result<std::vector<uint8_t>> bits = DearmorPayload(
      assembled.value().payload, assembled.value().fill_bits);
  if (!bits.ok()) {
    ++stats_.payload_errors;
    return bits.status();
  }
  if (PeekMessageType(bits.value()) == 5) {
    Result<StaticVoyageData> data = DecodeStaticVoyageData(bits.value());
    if (!data.ok()) {
      ++stats_.payload_errors;
      return data.status();
    }
    ++stats_.static_reports;
    static_reports_.push_back(std::move(data).value());
    return Status::NotFound("static/voyage data, no position");
  }
  Result<PositionReport> report = DecodePositionReport(bits.value());
  if (!report.ok()) {
    if (report.status().code() == StatusCode::kUnimplemented) {
      ++stats_.unsupported_type;
    } else {
      ++stats_.payload_errors;
    }
    return report.status();
  }
  if (!report.value().HasPosition()) {
    ++stats_.invalid_position;
    return Status::Corruption("position not available or out of range");
  }
  last_report_ = report.value();
  ++stats_.accepted;
  stream::PositionTuple tuple;
  tuple.mmsi = last_report_.mmsi;
  tuple.pos = geo::GeoPoint{last_report_.lon_deg, last_report_.lat_deg};
  tuple.tau = arrival;
  return tuple;
}

Result<stream::PositionTuple> DataScanner::FeedTagged(
    std::string_view tagged_line) {
  const size_t tab = tagged_line.find('\t');
  const auto reject = [this](const char* why) {
    ++stats_.lines;
    ++stats_.framing_errors;
    return Status::Corruption(why);
  };
  if (tab == std::string_view::npos) return reject("missing tab");
  std::string_view tau_field = tagged_line.substr(0, tab);
  bool negative = false;
  if (!tau_field.empty() && tau_field[0] == '-') {
    negative = true;
    tau_field.remove_prefix(1);
  }
  Timestamp tau = 0;
  if (!ParseTime(tau_field, &tau)) return reject("bad timestamp tag");
  return FeedLine(tagged_line.substr(tab + 1), negative ? -tau : tau);
}

}  // namespace maritime::ais::reference
