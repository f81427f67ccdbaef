#include "tracker/compressor.h"

#include <algorithm>

namespace maritime::tracker {

std::vector<CriticalPoint> Compressor::Compress(
    std::vector<CriticalPoint> batch, uint64_t raw_count) {
  return CompressInPlace(&batch, raw_count);
}

std::vector<CriticalPoint> Compressor::CompressInPlace(
    std::vector<CriticalPoint>* batch_ptr, uint64_t raw_count) {
  std::vector<CriticalPoint>& batch = *batch_ptr;
  std::stable_sort(batch.begin(), batch.end(),
                   [](const CriticalPoint& a, const CriticalPoint& b) {
                     if (a.mmsi != b.mmsi) return a.mmsi < b.mmsi;
                     return a.tau < b.tau;
                   });
  // Coalesce entries sharing (mmsi, tau) into one annotated point.
  std::vector<CriticalPoint> out;
  out.reserve(batch.size());
  for (const auto& cp : batch) {
    if (!out.empty() && out.back().mmsi == cp.mmsi &&
        out.back().tau == cp.tau) {
      out.back().flags |= cp.flags;
      out.back().duration = std::max(out.back().duration, cp.duration);
      continue;
    }
    out.push_back(cp);
  }
  // Re-sort into stream order (time-major) for downstream consumers.
  std::stable_sort(out.begin(), out.end(),
                   [](const CriticalPoint& a, const CriticalPoint& b) {
                     if (a.tau != b.tau) return a.tau < b.tau;
                     return a.mmsi < b.mmsi;
                   });
  stats_.raw_positions += raw_count;
  stats_.critical_points += out.size();
  return out;
}

}  // namespace maritime::tracker
