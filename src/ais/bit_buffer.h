#ifndef MARITIME_AIS_BIT_BUFFER_H_
#define MARITIME_AIS_BIT_BUFFER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"

namespace maritime::ais {

/// AIS message bits packed most-significant first into 64-bit words: bit i
/// is bit (63 - i % 64) of word i / 64, matching the ITU-R M.1371 field
/// layout. Invariants: exactly ceil(size() / 64) words, and every bit at or
/// past size() is zero, so equal bit sequences compare equal and a reader
/// can load whole words without masking the tail. clear() keeps capacity,
/// which is what lets the scanner de-armor line after line without
/// allocating.
class BitBuffer {
 public:
  size_t size() const { return size_; }
  const std::vector<uint64_t>& words() const { return words_; }

  bool operator[](size_t i) const {
    return ((words_[i >> 6] >> (63 - (i & 63))) & 1u) != 0;
  }

  /// Appends the `width` low bits of `value`, MSB first. 0 < width <= 64.
  void Append(uint64_t value, int width);
  void push_back(bool bit) { Append(bit ? 1u : 0u, 1); }

  /// Truncates to, or zero-extends to, `n` bits.
  void resize(size_t n);
  void clear() {
    words_.clear();
    size_ = 0;
  }

  /// Sets the contents to `n` zero bits and returns the word storage for
  /// the caller to OR bits into; bits at or past `n` must stay zero. Keeps
  /// capacity. Used by the de-armorer, which fills whole words at a time.
  uint64_t* ZeroFill(size_t n) {
    words_.assign((n + 63) / 64, 0);
    size_ = n;
    return words_.data();
  }

  friend bool operator==(const BitBuffer&, const BitBuffer&) = default;

 private:
  std::vector<uint64_t> words_;
  size_t size_ = 0;
};

/// Append-only big-endian bit writer used to build AIS binary payloads.
class BitWriter {
 public:
  /// Appends the `width` low bits of `value` (unsigned), MSB first.
  /// Precondition: 0 < width <= 64.
  void WriteUnsigned(uint64_t value, int width) { bits_.Append(value, width); }

  /// Appends a two's-complement signed value of `width` bits.
  void WriteSigned(int64_t value, int width) {
    WriteUnsigned(static_cast<uint64_t>(value), width);
  }

  /// Appends a string in the AIS 6-bit character set, padded/truncated to
  /// exactly `chars` characters ('@' = 0 terminates/pads).
  void WriteSixbitString(const std::string& s, int chars);

  /// Number of bits written so far.
  size_t bit_size() const { return bits_.size(); }
  const BitBuffer& bits() const { return bits_; }

 private:
  BitBuffer bits_;
};

/// Big-endian bit reader over a BitBuffer. Each read extracts its field from
/// at most two words. Reads past the end return zeros and set `overflow()`
/// (bits that do exist are still returned, left-aligned, exactly as a
/// bit-by-bit reader would) — AIS receivers must tolerate truncated
/// payloads, and the decoders check `overflow()` to flag corrupt messages.
class BitReader {
 public:
  explicit BitReader(const BitBuffer& bits)
      : words_(bits.words().data()),
        word_count_(bits.words().size()),
        size_(bits.size()) {}

  /// Reads `width` bits as an unsigned value. Precondition: 0 < width <= 64.
  uint64_t ReadUnsigned(int width) {
    MARITIME_DCHECK_MSG(width > 0 && width <= 64, "field width out of range");
    const size_t pos = pos_;
    pos_ += static_cast<size_t>(width);
    if (pos_ > size_) overflow_ = true;
    const size_t wi = pos >> 6;
    const unsigned off = static_cast<unsigned>(pos & 63);
    uint64_t v = Word(wi) << off;
    if (off + static_cast<unsigned>(width) > 64) {
      v |= Word(wi + 1) >> (64 - off);
    }
    return width == 64 ? v : v >> (64 - width);
  }

  /// Reads `width` bits as a two's-complement signed value.
  int64_t ReadSigned(int width) {
    const uint64_t v = ReadUnsigned(width);
    if (width == 64) return static_cast<int64_t>(v);
    // Sign-extend from `width` bits.
    const unsigned shift = 64 - static_cast<unsigned>(width);
    return static_cast<int64_t>(v << shift) >> shift;
  }

  /// Reads `chars` 6-bit characters, stripping trailing '@' and spaces.
  std::string ReadSixbitString(int chars) {
    std::string out;
    ReadSixbitString(chars, &out);
    return out;
  }
  /// As above, into `out` (reusing its capacity).
  void ReadSixbitString(int chars, std::string* out);

  /// Skips `width` bits.
  void Skip(int width) {
    MARITIME_DCHECK_MSG(width >= 0, "cannot skip backwards");
    pos_ += static_cast<size_t>(width);
    if (pos_ > size_) overflow_ = true;
  }

  size_t position() const { return pos_; }
  size_t size() const { return size_; }
  bool overflow() const { return overflow_; }

 private:
  uint64_t Word(size_t i) const { return i < word_count_ ? words_[i] : 0; }

  const uint64_t* words_;
  size_t word_count_;
  size_t size_;
  size_t pos_ = 0;
  bool overflow_ = false;
};

}  // namespace maritime::ais

#endif  // MARITIME_AIS_BIT_BUFFER_H_
