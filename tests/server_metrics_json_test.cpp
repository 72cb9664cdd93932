// ctest-labels: server
//
// Regression test for the metrics scrape schema: ServerMetrics::ToJson
// must stay machine-parseable (a strict little JSON validator here, no
// third-party parser) and keep its stable top-level keys — dashboards and
// the bench harness key on them. The "shards" array is always present:
// [] on an unsharded engine, one stable-keyed entry per shard otherwise.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "server/metrics.h"
#include "server/sharded_engine.h"
#include "synth/generator.h"

namespace strg::server {
namespace {

/// Minimal strict JSON validator (objects / arrays / strings / numbers /
/// true / false / null — exactly what the scrape emits). Returns the
/// position after the value, or npos on malformed input.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool ValidDocument() {
    size_t end = Value(0);
    return end != std::string::npos && end == s_.size();
  }

 private:
  size_t Value(size_t i) {
    if (i >= s_.size()) return std::string::npos;
    switch (s_[i]) {
      case '{':
        return Object(i);
      case '[':
        return Array(i);
      case '"':
        return String(i);
      case 't':
        return Literal(i, "true");
      case 'f':
        return Literal(i, "false");
      case 'n':
        return Literal(i, "null");
      default:
        return Number(i);
    }
  }

  size_t Object(size_t i) {
    ++i;  // '{'
    if (i < s_.size() && s_[i] == '}') return i + 1;
    for (;;) {
      i = String(i);
      if (i == std::string::npos || i >= s_.size() || s_[i] != ':') {
        return std::string::npos;
      }
      i = Value(i + 1);
      if (i == std::string::npos || i >= s_.size()) return std::string::npos;
      if (s_[i] == ',') {
        ++i;
        continue;
      }
      return s_[i] == '}' ? i + 1 : std::string::npos;
    }
  }

  size_t Array(size_t i) {
    ++i;  // '['
    if (i < s_.size() && s_[i] == ']') return i + 1;
    for (;;) {
      i = Value(i);
      if (i == std::string::npos || i >= s_.size()) return std::string::npos;
      if (s_[i] == ',') {
        ++i;
        continue;
      }
      return s_[i] == ']' ? i + 1 : std::string::npos;
    }
  }

  size_t String(size_t i) {
    if (i >= s_.size() || s_[i] != '"') return std::string::npos;
    for (++i; i < s_.size(); ++i) {
      if (s_[i] == '\\') {
        ++i;
      } else if (s_[i] == '"') {
        return i + 1;
      }
    }
    return std::string::npos;
  }

  size_t Number(size_t i) {
    size_t start = i;
    if (i < s_.size() && s_[i] == '-') ++i;
    while (i < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i])) || s_[i] == '.' ||
            s_[i] == 'e' || s_[i] == 'E' || s_[i] == '+' || s_[i] == '-')) {
      ++i;
    }
    return i > start ? i : std::string::npos;
  }

  size_t Literal(size_t i, const char* lit) {
    size_t n = std::char_traits<char>::length(lit);
    if (s_.compare(i, n, lit) != 0) return std::string::npos;
    return i + n;
  }

  const std::string& s_;
};

/// The stable top-level schema, in emission order.
const char* const kTopLevelKeys[] = {
    "\"generation\":", "\"shards\":",  "\"admission\":", "\"status_codes\":",
    "\"ingest\":",     "\"wal\":",     "\"storage\":",   "\"distance\":",
    "\"queries\":",
};

TEST(ServerMetricsJson, UnshardedScrapeIsValidWithStableKeysAndEmptyShards) {
  ServerMetrics m;
  m.admitted.fetch_add(3);
  m.knn_latency.Record(120.0);
  std::string json = m.ToJson(/*generation=*/7);

  EXPECT_TRUE(JsonChecker(json).ValidDocument()) << json;
  size_t last = 0;
  for (const char* key : kTopLevelKeys) {
    size_t pos = json.find(key);
    ASSERT_NE(pos, std::string::npos) << "missing key " << key;
    EXPECT_GT(pos, last) << "key out of order: " << key;
    last = pos;
  }
  EXPECT_NE(json.find("\"generation\":7"), std::string::npos);
  EXPECT_NE(json.find("\"shards\":[]"), std::string::npos);
}

TEST(ServerMetricsJson, ShardScrapeEntriesAreStableKeyed) {
  ServerMetrics m;
  std::vector<ServerMetrics::ShardScrape> shards(3);
  shards[0].queries = 10;
  shards[0].tau_prune_hits = 4;
  shards[1].queue_depth = 2;
  std::string json = m.ToJson(/*generation=*/1, shards);

  EXPECT_TRUE(JsonChecker(json).ValidDocument()) << json;
  EXPECT_NE(
      json.find("\"shards\":[{\"queries\":10,\"tau_prune_hits\":4,"
                "\"queue_depth\":0},{\"queries\":0,\"tau_prune_hits\":0,"
                "\"queue_depth\":2},{\"queries\":0,\"tau_prune_hits\":0,"
                "\"queue_depth\":0}]"),
      std::string::npos)
      << json;
}

TEST(ServerMetricsJson, ShardedEngineScrapeIsValidAndCountsLegs) {
  synth::SynthParams sp;
  sp.items_per_cluster = 1;
  sp.seed = 3;
  synth::SynthDataset ds = synth::GenerateSyntheticOgs(sp);
  api::SegmentResult segment;
  segment.frame_width = 100;
  segment.frame_height = 100;
  size_t frames = 1;
  for (const core::Og& og : ds.ogs) {
    frames = std::max(frames,
                      static_cast<size_t>(og.start_frame) + og.Length());
    segment.decomposition.object_graphs.push_back(og);
  }
  segment.num_frames = frames;

  index::StrgIndexParams ip;
  ip.num_clusters = 4;
  ip.cluster_params.max_iterations = 4;
  ShardedEngineOptions so;
  so.num_shards = 2;
  so.num_threads = 2;
  ShardedQueryEngine engine(ip, so);
  engine.AddVideo("clip", segment);

  std::vector<dist::Sequence> queries = ds.Sequences(synth::SynthScaling());
  for (size_t q = 0; q < 4; ++q) {
    ASSERT_EQ(engine.Query(api::QuerySpec::Similar(queries[q], 3)).status,
              StatusCode::kOk);
  }

  std::string json = engine.MetricsJson();
  EXPECT_TRUE(JsonChecker(json).ValidDocument()) << json;
  // Two shard entries, 4 queries * 2 legs executed in total.
  uint64_t legs = 0;
  size_t entries = 0;
  size_t pos = 0;
  while ((pos = json.find("{\"queries\":", pos)) != std::string::npos) {
    pos += sizeof("{\"queries\":") - 1;
    legs += std::strtoull(json.c_str() + pos, nullptr, 10);
    ++entries;
  }
  EXPECT_EQ(entries, 2u);
  EXPECT_EQ(legs, 8u);
}

}  // namespace
}  // namespace strg::server
