#include "ais/bit_buffer.h"

namespace maritime::ais {
namespace {

// AIS 6-bit character set (ITU-R M.1371 Table 44): index = 6-bit value.
constexpr char kSixbitAlphabet[] =
    "@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_ !\"#$%&'()*+,-./0123456789:;<=>?";

int SixbitFromChar(char c) {
  for (int i = 0; i < 64; ++i) {
    if (kSixbitAlphabet[i] == c) return i;
  }
  // Lowercase letters map onto their uppercase counterparts.
  if (c >= 'a' && c <= 'z') return c - 'a' + 1;
  return 0;  // '@' (null) for anything unrepresentable
}

}  // namespace

void BitBuffer::Append(uint64_t value, int width) {
  MARITIME_DCHECK_MSG(width > 0 && width <= 64, "field width out of range");
  if (width < 64) value &= (uint64_t{1} << width) - 1;
  const unsigned off = static_cast<unsigned>(size_ & 63);
  if (off == 0) words_.push_back(0);
  const unsigned room = 64 - off;
  if (static_cast<unsigned>(width) <= room) {
    words_.back() |= value << (room - static_cast<unsigned>(width));
  } else {
    const unsigned spill = static_cast<unsigned>(width) - room;
    words_.back() |= value >> spill;
    words_.push_back(value << (64 - spill));
  }
  size_ += static_cast<size_t>(width);
}

void BitBuffer::resize(size_t n) {
  words_.resize((n + 63) / 64, 0);
  size_ = n;
  // Re-establish the zero tail after a truncation inside a word.
  if ((n & 63) != 0) words_.back() &= ~uint64_t{0} << (64 - (n & 63));
}

void BitWriter::WriteSixbitString(const std::string& s, int chars) {
  for (int i = 0; i < chars; ++i) {
    const char c = i < static_cast<int>(s.size()) ? s[static_cast<size_t>(i)]
                                                  : '@';
    WriteUnsigned(static_cast<uint64_t>(SixbitFromChar(c)), 6);
  }
}

void BitReader::ReadSixbitString(int chars, std::string* out) {
  out->clear();
  for (int i = 0; i < chars; ++i) {
    out->push_back(kSixbitAlphabet[ReadUnsigned(6) & 63u]);
  }
  // Strip trailing padding ('@' and spaces).
  while (!out->empty() && (out->back() == '@' || out->back() == ' ')) {
    out->pop_back();
  }
}

}  // namespace maritime::ais
