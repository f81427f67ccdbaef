#include "maritime/recognizer.h"

#include <algorithm>
#include <cassert>

#include "common/strings.h"

namespace maritime::surveillance {

CERecognizer::CERecognizer(const KnowledgeBase* kb, RecognizerConfig config,
                           common::ThreadPool* pool)
    : kb_(kb), config_(config) {
  assert(kb_ != nullptr);
  switch (config_.engine) {
    case EngineMode::kFromFlag:
      break;
    case EngineMode::kNaive:
      config_.incremental = false;
      break;
    case EngineMode::kIncremental:
      config_.incremental = true;
      break;
    case EngineMode::kAuto:
      // Suffix reuse only pays when the window outlives the slide; at
      // ω close to β every slide dirties (almost) the whole window.
      config_.incremental = config_.window.range >= 3 * config_.window.slide;
      break;
  }
  rtec::EngineOptions opts;
  opts.incremental = config_.incremental;
  opts.adaptive_full_regen = config_.engine == EngineMode::kAuto;
  if (config_.parallel_keys) {
    opts.pool = pool != nullptr ? pool : &common::ThreadPool::Shared();
  }
  opts.min_parallel_keys = config_.min_parallel_keys;
  opts.scoped_dirty = config_.scoped_dirty;
  engine_ = std::make_unique<rtec::Engine>(config_.window, kb_, opts);
  schema_ = MaritimeSchema::Declare(*engine_);
  RegisterMaritimeCes(*engine_, schema_, kb_,
                      config_.ce.use_spatial_facts ? &facts_ : nullptr,
                      config_.ce);
}

void CERecognizer::Feed(const tracker::CriticalPoint& cp) {
  Feed(std::span<const tracker::CriticalPoint>(&cp, 1));
}

void CERecognizer::Feed(std::span<const tracker::CriticalPoint> cps) {
  Feed(Stage(cps));
}

CERecognizer::StagedPoints CERecognizer::Stage(
    std::span<const tracker::CriticalPoint> cps) const {
  StagedPoints staged;
  staged.cps.assign(cps.begin(), cps.end());
  if (config_.ce.use_spatial_facts) {
    // The trajectory detection side accompanies each ME with facts naming
    // the areas the vessel is currently close to (Figure 11(b) setting);
    // recognition then skips on-demand spatial reasoning entirely. One
    // batched lookup: consecutive points of a slide are spatially coherent,
    // so a shared locality cache turns most lookups into a pointer compare.
    std::vector<geo::GeoPoint> pts;
    pts.reserve(cps.size());
    for (const tracker::CriticalPoint& cp : cps) pts.push_back(cp.pos);
    staged.close = kb_->AreasCloseToAll(pts);
  }
  return staged;
}

void CERecognizer::Feed(StagedPoints&& staged) {
  const bool spatial = config_.ce.use_spatial_facts;
  assert(!spatial || staged.close.size() == staged.cps.size());
  for (size_t i = 0; i < staged.cps.size(); ++i) {
    FeedCriticalPoint(*engine_, schema_, staged.cps[i]);
    if (spatial) {
      facts_.AddFactGroup(staged.cps[i].mmsi, staged.cps[i].tau,
                          std::move(staged.close[i]));
    }
  }
}

rtec::RecognitionResult CERecognizer::Recognize(Timestamp q) {
  if (config_.ce.use_spatial_facts) {
    facts_.PurgeBefore(q - config_.window.range);
  }
  rtec::RecognitionResult result = engine_->Recognize(q);
  if (config_.ce.use_spatial_facts) {
    result.input_events_in_window += facts_.fact_count();
  }
  return result;
}

std::string CERecognizer::Describe(const rtec::RecognizedEvent& e) const {
  return StrPrintf("%s(%s, %s) @ %lld", engine_->EventName(e.event).c_str(),
                   TermLabel(e.instance.object).c_str(),
                   TermLabel(e.instance.subject).c_str(),
                   static_cast<long long>(e.instance.t));
}

std::string CERecognizer::Describe(const rtec::RecognizedFluent& f) const {
  std::string out = StrPrintf("%s(%s)=%d",
                              engine_->FluentName(f.fluent).c_str(),
                              TermLabel(f.key).c_str(), f.value);
  for (const rtec::Interval& i : f.intervals) {
    out += StrPrintf(" (%lld,%lld]", static_cast<long long>(i.since),
                     static_cast<long long>(i.till));
  }
  return out;
}

PartitionedRecognizer::PartitionedRecognizer(const KnowledgeBase& kb,
                                             RecognizerConfig config,
                                             int partitions,
                                             common::ThreadPool* pool)
    : pool_(pool != nullptr ? pool : &common::ThreadPool::Shared()) {
  assert(partitions >= 1);
  // Order areas west to east by polygon centroid and cut into equal bands
  // (the paper splits the surveillance region into a west and an east part).
  std::vector<std::pair<double, int32_t>> by_lon;
  for (const AreaInfo& a : kb.areas()) {
    by_lon.emplace_back(a.polygon.VertexCentroid().lon, a.id);
  }
  std::sort(by_lon.begin(), by_lon.end());
  const size_t n = by_lon.size();
  const size_t per =
      (n + static_cast<size_t>(partitions) - 1) /
      std::max<size_t>(1, static_cast<size_t>(partitions));
  for (int p = 0; p < partitions; ++p) {
    const size_t lo = std::min(n, static_cast<size_t>(p) * per);
    const size_t hi = std::min(n, lo + per);
    std::vector<int32_t> ids;
    for (size_t i = lo; i < hi; ++i) ids.push_back(by_lon[i].second);
    Partition part;
    part.min_lon = p == 0 || lo >= n ? -180.0 : by_lon[lo].first;
    part.kb = std::make_unique<KnowledgeBase>(kb.Restricted(ids));
    part.rec = std::make_unique<CERecognizer>(part.kb.get(), config, pool_);
    parts_.push_back(std::move(part));
  }
}

size_t PartitionedRecognizer::PartitionFor(const geo::GeoPoint& p) const {
  size_t chosen = 0;
  for (size_t i = 0; i < parts_.size(); ++i) {
    if (p.lon >= parts_[i].min_lon) chosen = i;
  }
  return chosen;
}

void PartitionedRecognizer::Feed(const tracker::CriticalPoint& cp) {
  Feed(std::span<const tracker::CriticalPoint>(&cp, 1));
}

void PartitionedRecognizer::Feed(std::span<const tracker::CriticalPoint> cps) {
  Feed(Stage(cps));
}

PartitionedRecognizer::StagedFeed PartitionedRecognizer::Stage(
    std::span<const tracker::CriticalPoint> cps) const {
  StagedFeed staged;
  staged.parts.resize(parts_.size());
  if (parts_.size() == 1) {
    staged.parts[0] = parts_[0].rec->Stage(cps);
    return staged;
  }
  std::vector<std::vector<tracker::CriticalPoint>> buckets(parts_.size());
  for (const tracker::CriticalPoint& cp : cps) {
    buckets[PartitionFor(cp.pos)].push_back(cp);
  }
  for (size_t i = 0; i < parts_.size(); ++i) {
    if (!buckets[i].empty()) {
      staged.parts[i] = parts_[i].rec->Stage(
          std::span<const tracker::CriticalPoint>(buckets[i]));
    }
  }
  return staged;
}

void PartitionedRecognizer::Feed(StagedFeed&& staged) {
  assert(staged.parts.size() == parts_.size());
  for (size_t i = 0; i < parts_.size(); ++i) {
    if (!staged.parts[i].cps.empty()) {
      parts_[i].rec->Feed(std::move(staged.parts[i]));
    }
  }
}

std::vector<rtec::RecognitionResult> PartitionedRecognizer::Recognize(
    Timestamp q) {
  std::vector<rtec::RecognitionResult> results(parts_.size());
  // One task per partition on the long-lived pool; spawning fresh
  // std::threads every slide used to dominate recognition at small slides.
  pool_->ParallelFor(parts_.size(), [this, q, &results](size_t i) {
    results[i] = parts_[i].rec->Recognize(q);
  });
  return results;
}

PartitionedRecognizer::RecognizeTotals PartitionedRecognizer::totals() const {
  // The counters live in the per-partition engines; they only move during
  // Recognize, so summing at read time needs no locking.
  RecognizeTotals out;
  for (const Partition& p : parts_) {
    const rtec::EngineCacheStats& cs = p.rec->engine().cache_stats();
    out.cache_hits += cs.hits;
    out.cache_misses += cs.misses;
    out.spans_narrowed += cs.spans_narrowed;
    out.fleet_floor_hits += cs.fleet_floor_hits;
    const rtec::EngineAllocStats& as = p.rec->engine().alloc_stats();
    out.arena_bytes += as.arena_bytes;
    out.arena_chunks += as.arena_chunks;
    out.fallback_allocs += as.fallback_allocs;
  }
  return out;
}

}  // namespace maritime::surveillance
