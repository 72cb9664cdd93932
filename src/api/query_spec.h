#ifndef STRG_API_QUERY_SPEC_H_
#define STRG_API_QUERY_SPEC_H_

#include <chrono>
#include <cstddef>
#include <string>
#include <utility>

#include "distance/sequence.h"

namespace strg::api {

/// Per-request options of the submit/complete query surface. One options
/// vocabulary across the serving engines: QueryEngine, DurableQueryEngine
/// and ShardedQueryEngine all take this struct, so a request keeps its
/// deadline as it crosses layers.
struct SubmitOptions {
  /// Per-request deadline measured from submission. 0 = none. Negative =
  /// already expired (deterministic deadline handling, used by tests).
  std::chrono::microseconds timeout{0};
};

/// One value describing any retrieval request the system answers: a tagged
/// kind plus the union of the kinds' parameters, so every layer — database
/// dispatch, engine routing, metrics attribution — consumes the same
/// object instead of re-encoding the request per call site.
struct QuerySpec {
  enum class Kind {
    kSimilar = 0,  ///< k-NN over stored OGs (Algorithm 3)
    kRange,        ///< all OGs within `radius` (EGED_M), ascending
    kActive,       ///< OGs of `video` alive inside the frame window
  };

  Kind kind = Kind::kSimilar;

  /// Probe sequence for kSimilar / kRange (ignored by kActive).
  dist::Sequence sequence;
  size_t k = 10;        ///< kSimilar: neighbours requested
  double radius = 0.0;  ///< kRange: EGED_M cutoff

  std::string video;    ///< kActive: camera/clip name
  int first_frame = 0;  ///< kActive: window start (inclusive)
  int last_frame = 0;   ///< kActive: window end (inclusive)

  static QuerySpec Similar(dist::Sequence query, size_t k) {
    QuerySpec s;
    s.kind = Kind::kSimilar;
    s.sequence = std::move(query);
    s.k = k;
    return s;
  }
  static QuerySpec WithinRadius(dist::Sequence query, double radius) {
    QuerySpec s;
    s.kind = Kind::kRange;
    s.sequence = std::move(query);
    s.radius = radius;
    return s;
  }
  static QuerySpec Active(std::string video, int first_frame,
                          int last_frame) {
    QuerySpec s;
    s.kind = Kind::kActive;
    s.video = std::move(video);
    s.first_frame = first_frame;
    s.last_frame = last_frame;
    return s;
  }
};

}  // namespace strg::api

#endif  // STRG_API_QUERY_SPEC_H_
