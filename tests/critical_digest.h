// FNV-1a digest of a critical-point sequence in its snapshot encoding
// (tracker::SaveCriticalPoint), so differential tests can compare what two
// runs emitted slide by slide without keeping every point.
#ifndef MARITIME_TESTS_CRITICAL_DIGEST_H_
#define MARITIME_TESTS_CRITICAL_DIGEST_H_

#include <cstdint>
#include <span>

#include "snapshot/codec.h"
#include "tracker/critical_point.h"
#include "tracker/snapshot_io.h"

namespace maritime {

inline uint64_t CriticalsDigest(std::span<const tracker::CriticalPoint> cps) {
  snapshot::Writer w;
  for (const tracker::CriticalPoint& cp : cps) tracker::SaveCriticalPoint(cp, w);
  uint64_t h = 1469598103934665603ULL;
  for (const char c : w.bytes()) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace maritime

#endif  // MARITIME_TESTS_CRITICAL_DIGEST_H_
