#include "server/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace strg::server {

namespace {

/// Formats a double with bounded precision (JSON-safe, no locale).
void AppendNumber(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out->append(buf);
}

void AppendCount(std::string* out, uint64_t v) {
  out->append(std::to_string(v));
}

}  // namespace

double LatencyHistogram::BucketUpperMicros(size_t i) {
  // 2^(i/2): 1us, 1.41us, 2us, ... ~2.96e6 us for the last finite bucket.
  return std::pow(2.0, static_cast<double>(i) / 2.0);
}

void LatencyHistogram::Record(double micros) {
  if (micros < 0.0) micros = 0.0;
  // Inverse of BucketUpperMicros: first bucket whose upper bound >= micros.
  size_t b = 0;
  if (micros > 1.0) {
    b = static_cast<size_t>(std::ceil(2.0 * std::log2(micros)));
  }
  b = std::min(b, kNumBuckets - 1);
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_micros_.fetch_add(static_cast<uint64_t>(micros),
                        std::memory_order_relaxed);
}

double LatencyHistogram::MeanMicros() const {
  uint64_t n = count_.load(std::memory_order_relaxed);
  if (n == 0) return 0.0;
  return static_cast<double>(sum_micros_.load(std::memory_order_relaxed)) /
         static_cast<double>(n);
}

double LatencyHistogram::PercentileMicros(double p) const {
  uint64_t n = count_.load(std::memory_order_relaxed);
  if (n == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  uint64_t rank = static_cast<uint64_t>(std::ceil(p / 100.0 *
                                                  static_cast<double>(n)));
  rank = std::max<uint64_t>(rank, 1);
  uint64_t cum = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    cum += buckets_[b].load(std::memory_order_relaxed);
    if (cum >= rank) return BucketUpperMicros(b);
  }
  return BucketUpperMicros(kNumBuckets - 1);
}

void LatencyHistogram::AppendJson(std::string* out) const {
  out->append("{\"count\":");
  AppendCount(out, Count());
  out->append(",\"mean_us\":");
  AppendNumber(out, MeanMicros());
  out->append(",\"p50_us\":");
  AppendNumber(out, PercentileMicros(50.0));
  out->append(",\"p95_us\":");
  AppendNumber(out, PercentileMicros(95.0));
  out->append(",\"p99_us\":");
  AppendNumber(out, PercentileMicros(99.0));
  out->append("}");
}

void ServerMetrics::NoteQueueDepth(int64_t depth) {
  int64_t seen = max_queue_depth.load(std::memory_order_relaxed);
  while (depth > seen &&
         !max_queue_depth.compare_exchange_weak(seen, depth,
                                                std::memory_order_relaxed)) {
  }
}

void ServerMetrics::AddIngestPipeline(const api::IngestStats& s) {
  frames_segmented.fetch_add(s.frames_segmented, std::memory_order_relaxed);
  shots_processed.fetch_add(s.shots_processed, std::memory_order_relaxed);
  ingest_queue_stalls.fetch_add(s.queue_full_stalls,
                                std::memory_order_relaxed);
  ingest_segment_us.fetch_add(s.segment_us, std::memory_order_relaxed);
  ingest_track_us.fetch_add(s.track_us, std::memory_order_relaxed);
  ingest_decompose_us.fetch_add(s.decompose_us, std::memory_order_relaxed);
}

std::string ServerMetrics::ToJson(
    uint64_t generation, const std::vector<ShardScrape>& shards) const {
  std::string out;
  out.reserve(1024 + shards.size() * 64);
  out.append("{\"generation\":");
  AppendCount(&out, generation);

  // Per-shard breakdown; [] on an unsharded engine. Key order inside each
  // entry is part of the stable schema the regression test pins.
  out.append(",\"shards\":[");
  for (size_t s = 0; s < shards.size(); ++s) {
    if (s != 0) out.push_back(',');
    out.append("{\"queries\":");
    AppendCount(&out, shards[s].queries);
    out.append(",\"tau_prune_hits\":");
    AppendCount(&out, shards[s].tau_prune_hits);
    out.append(",\"queue_depth\":");
    out.append(std::to_string(shards[s].queue_depth));
    out.append("}");
  }
  out.append("]");

  out.append(",\"admission\":{\"admitted\":");
  AppendCount(&out, admitted.load(std::memory_order_relaxed));
  out.append(",\"rejected_overloaded\":");
  AppendCount(&out, rejected_overloaded.load(std::memory_order_relaxed));
  out.append(",\"expired_in_queue\":");
  AppendCount(&out, expired_in_queue.load(std::memory_order_relaxed));
  out.append(",\"deadline_exceeded\":");
  AppendCount(&out, deadline_exceeded.load(std::memory_order_relaxed));
  out.append(",\"queue_depth\":");
  out.append(std::to_string(queue_depth.load(std::memory_order_relaxed)));
  out.append(",\"max_queue_depth\":");
  out.append(std::to_string(max_queue_depth.load(std::memory_order_relaxed)));
  out.append("}");

  // Per-status-code request breakdown (one slot per api::StatusCode).
  out.append(",\"status_codes\":{");
  for (size_t i = 0; i < api::kNumStatusCodes; ++i) {
    if (i != 0) out.push_back(',');
    out.push_back('"');
    out.append(api::StatusCodeName(static_cast<api::StatusCode>(i)));
    out.append("\":");
    AppendCount(&out, status_counts[i].load(std::memory_order_relaxed));
  }
  out.append("}");

  out.append(",\"ingest\":{\"count\":");
  AppendCount(&out, ingests.load(std::memory_order_relaxed));
  out.append(",\"snapshots_published\":");
  AppendCount(&out, snapshots_published.load(std::memory_order_relaxed));
  out.append(",\"frames_segmented\":");
  AppendCount(&out, frames_segmented.load(std::memory_order_relaxed));
  out.append(",\"shots\":");
  AppendCount(&out, shots_processed.load(std::memory_order_relaxed));
  out.append(",\"queue_stalls\":");
  AppendCount(&out, ingest_queue_stalls.load(std::memory_order_relaxed));
  out.append(",\"stage_us\":{\"segment\":");
  AppendCount(&out, ingest_segment_us.load(std::memory_order_relaxed));
  out.append(",\"track\":");
  AppendCount(&out, ingest_track_us.load(std::memory_order_relaxed));
  out.append(",\"decompose\":");
  AppendCount(&out, ingest_decompose_us.load(std::memory_order_relaxed));
  out.append("}");
  out.append(",\"latency\":");
  ingest_latency.AppendJson(&out);
  out.append("}");

  out.append(",\"wal\":{\"appends\":");
  AppendCount(&out, wal_appends.load(std::memory_order_relaxed));
  out.append(",\"bytes\":");
  AppendCount(&out, wal_synced_bytes.load(std::memory_order_relaxed));
  out.append(",\"syncs\":");
  AppendCount(&out, wal_syncs.load(std::memory_order_relaxed));
  out.append(",\"compactions\":");
  AppendCount(&out, wal_compactions.load(std::memory_order_relaxed));
  out.append("}");

  // Out-of-core storage engine (zeros + paged:false when the engine keeps
  // everything in RAM).
  const storage::BufferCache* cache =
      storage_cache.load(std::memory_order_acquire);
  const storage::BufferCacheStats cs =
      cache != nullptr ? cache->stats() : storage::BufferCacheStats{};
  out.append(",\"storage\":{\"paged\":");
  out.append(cache != nullptr ? "true" : "false");
  out.append(",\"hits\":");
  AppendCount(&out, cs.hits);
  out.append(",\"misses\":");
  AppendCount(&out, cs.misses);
  out.append(",\"evictions\":");
  AppendCount(&out, cs.evictions);
  out.append(",\"pinned_pages\":");
  AppendCount(&out, cs.pinned_pages);
  out.append(",\"hit_rate\":");
  AppendNumber(&out, cs.HitRate());
  out.append(",\"resident_bytes\":");
  AppendCount(&out, cache != nullptr ? cache->resident_bytes() : 0);
  out.append("}");

  out.append(",\"distance\":{\"computations\":");
  AppendCount(&out, distance_computations.load(std::memory_order_relaxed));
  out.append(",\"lb_prunes\":");
  AppendCount(&out, lb_prunes.load(std::memory_order_relaxed));
  out.append(",\"early_abandons\":");
  AppendCount(&out, early_abandons.load(std::memory_order_relaxed));
  out.append("}");

  out.append(",\"queries\":{\"knn\":");
  knn_latency.AppendJson(&out);
  out.append(",\"range\":");
  range_latency.AppendJson(&out);
  out.append(",\"active\":");
  active_latency.AppendJson(&out);
  out.append("}}");
  return out;
}

}  // namespace strg::server
