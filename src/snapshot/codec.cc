#include "snapshot/codec.h"

#include <array>
#include <bit>

namespace maritime::snapshot {
namespace {

// The slicing kernel loads payload bytes as little-endian 64-bit words, like
// the rest of the codec.
static_assert(std::endian::native == std::endian::little,
              "the snapshot codec targets little-endian hosts");

/// Slicing-by-16 tables: t[0] is the classic bytewise table for the reflected
/// IEEE polynomial, and t[k][b] is the CRC of byte b followed by k zero
/// bytes, so t[15 - i] folds in byte i of a 16-byte block in one lookup.
using CrcTables = std::array<std::array<uint32_t, 256>, 16>;

CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 16; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

}  // namespace

uint32_t Crc32(std::string_view bytes) {
  static const CrcTables kTables = MakeCrcTables();
  const CrcTables& t = kTables;
  const char* p = bytes.data();
  size_t n = bytes.size();
  uint32_t c = 0xFFFFFFFFu;
  for (; n >= 16; p += 16, n -= 16) {
    uint64_t lo = 0;
    uint64_t hi = 0;
    std::memcpy(&lo, p, sizeof(lo));
    std::memcpy(&hi, p + 8, sizeof(hi));
    lo ^= c;
    c = t[15][lo & 0xFFu] ^ t[14][(lo >> 8) & 0xFFu] ^
        t[13][(lo >> 16) & 0xFFu] ^ t[12][(lo >> 24) & 0xFFu] ^
        t[11][(lo >> 32) & 0xFFu] ^ t[10][(lo >> 40) & 0xFFu] ^
        t[9][(lo >> 48) & 0xFFu] ^ t[8][lo >> 56] ^
        t[7][hi & 0xFFu] ^ t[6][(hi >> 8) & 0xFFu] ^
        t[5][(hi >> 16) & 0xFFu] ^ t[4][(hi >> 24) & 0xFFu] ^
        t[3][(hi >> 32) & 0xFFu] ^ t[2][(hi >> 40) & 0xFFu] ^
        t[1][(hi >> 48) & 0xFFu] ^ t[0][hi >> 56];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ static_cast<uint8_t>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

size_t Writer::BeginSection(uint32_t tag, uint8_t version) {
  U32(tag);
  U8(version);
  const size_t handle = buf_.size();
  U64(0);  // Length placeholder, backpatched by EndSection.
  return handle;
}

void Writer::EndSection(size_t handle) {
  const uint64_t length = buf_.size() - (handle + sizeof(uint64_t));
  std::memcpy(buf_.data() + handle, &length, sizeof(length));
}

bool Reader::BeginSection(uint32_t expected_tag, uint8_t max_version,
                          uint8_t* version, size_t* end_offset) {
  uint32_t tag = 0;
  uint64_t length = 0;
  if (!U32(&tag) || !U8(version) || !Count(&length, 1)) return false;
  if (tag != expected_tag) return Fail();
  if (*version > max_version) {
    version_rejected_ = true;
    return Fail();
  }
  *end_offset = pos_ + length;
  return true;
}

}  // namespace maritime::snapshot
