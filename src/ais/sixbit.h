#ifndef MARITIME_AIS_SIXBIT_H_
#define MARITIME_AIS_SIXBIT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "ais/bit_buffer.h"
#include "common/result.h"

namespace maritime::ais {

/// Payload "armoring": AIVDM sentences carry the binary message body as a
/// string where each ASCII character encodes 6 bits (value v maps to char
/// v+48 for v < 40, else v+56 — ITU-R M.1371 / NMEA convention).

/// Converts raw bits into an armored payload string plus the number of fill
/// bits (0–5) appended to complete the final character.
std::string ArmorPayload(const BitBuffer& bits, int* fill_bits);

/// Converts an armored payload string back into bits, dropping `fill_bits`
/// trailing pad bits, into `out` (its capacity is reused, so a caller that
/// keeps one buffer de-armors without allocating). Fails on characters
/// outside the armoring alphabet (kCorruption), fill_bits outside [0, 5]
/// (kInvalidArgument) or more fill bits than payload bits (kCorruption).
/// `out` is unspecified after a failure.
Status DearmorPayload(std::string_view payload, int fill_bits, BitBuffer* out);

/// Allocating convenience form of the above.
Result<BitBuffer> DearmorPayload(std::string_view payload, int fill_bits);

/// Maps a 6-bit value (0–63) to its armored ASCII character.
char ArmorChar(uint8_t value);

/// Maps an armored ASCII character back to its 6-bit value, or -1 if the
/// character is not part of the armoring alphabet.
int DearmorChar(char c);

}  // namespace maritime::ais

#endif  // MARITIME_AIS_SIXBIT_H_
