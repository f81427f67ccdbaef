#include "ais/sixbit.h"

#include <algorithm>
#include <array>

#include "common/strings.h"

namespace maritime::ais {
namespace {

/// Armored character -> 6-bit value, or -1 outside the alphabet.
constexpr std::array<int8_t, 256> kDearmorTable = [] {
  std::array<int8_t, 256> t{};
  for (int c = 0; c < 256; ++c) {
    if (c >= 48 && c <= 87) {
      t[static_cast<size_t>(c)] = static_cast<int8_t>(c - 48);  // '0'..'W'
    } else if (c >= 96 && c <= 119) {
      t[static_cast<size_t>(c)] = static_cast<int8_t>(c - 56);  // '`'..'w'
    } else {
      t[static_cast<size_t>(c)] = -1;
    }
  }
  return t;
}();

}  // namespace

char ArmorChar(uint8_t value) {
  value &= 63u;
  return static_cast<char>(value < 40 ? value + 48 : value + 56);
}

int DearmorChar(char c) {
  return kDearmorTable[static_cast<unsigned char>(c)];
}

std::string ArmorPayload(const BitBuffer& bits, int* fill_bits) {
  std::string out;
  const size_t n = bits.size();
  out.reserve((n + 5) / 6);
  BitReader rd(bits);
  // Bits past the end read as zero, which is exactly the fill.
  for (size_t i = 0; i < n; i += 6) {
    out.push_back(ArmorChar(static_cast<uint8_t>(rd.ReadUnsigned(6))));
  }
  if (fill_bits != nullptr) *fill_bits = static_cast<int>((6 - n % 6) % 6);
  return out;
}

Status DearmorPayload(std::string_view payload, int fill_bits,
                      BitBuffer* out) {
  if (fill_bits < 0 || fill_bits > 5) {
    return Status::InvalidArgument(
        StrPrintf("fill_bits %d outside [0,5]", fill_bits));
  }
  const size_t total = payload.size() * 6;
  uint64_t* words = out->ZeroFill(total);
  // Each character's six bits are appended to a 64-bit accumulator that is
  // stored whenever it fills; a character straddling two words is split.
  uint64_t acc = 0;
  unsigned used = 0;  // bits of acc filled, < 64
  int bad = 0;        // negative once any character is outside the alphabet
  for (const char c : payload) {
    const int v = kDearmorTable[static_cast<unsigned char>(c)];
    bad |= v;
    const uint64_t bits = static_cast<uint64_t>(v & 63);
    if (used <= 58) {
      acc |= bits << (58 - used);
      used += 6;
      if (used == 64) {
        *words++ = acc;
        acc = 0;
        used = 0;
      }
    } else {
      const unsigned spill = used - 58;  // low bits that start the next word
      *words++ = acc | (bits >> spill);
      acc = bits << (64 - spill);
      used = spill;
    }
  }
  if (used != 0) *words = acc;
  if (bad < 0) {
    for (const char c : payload) {
      if (DearmorChar(c) < 0) {
        return Status::Corruption(
            StrPrintf("invalid armored payload character 0x%02x",
                      static_cast<unsigned char>(c)));
      }
    }
  }
  if (static_cast<size_t>(fill_bits) > total) {
    return Status::Corruption("fill_bits exceed payload size");
  }
  out->resize(total - static_cast<size_t>(fill_bits));
  return Status::OK();
}

Result<BitBuffer> DearmorPayload(std::string_view payload, int fill_bits) {
  BitBuffer bits;
  if (Status s = DearmorPayload(payload, fill_bits, &bits); !s.ok()) return s;
  return bits;
}

}  // namespace maritime::ais
