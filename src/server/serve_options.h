#ifndef STRG_SERVER_SERVE_OPTIONS_H_
#define STRG_SERVER_SERVE_OPTIONS_H_

#include <cstddef>
#include <string_view>

#include "server/durable_engine.h"

namespace strg::server {

/// Serving configuration shared by `strgtool serve` and embedders: one
/// struct owns the flag vocabulary (--paged, --cache-mb=N) and its
/// mapping onto DurableEngineOptions, so the CLI and library callers
/// cannot drift apart on defaults or spelling.
struct ServeOptions {
  /// Keep the index's leaf sequences in the out-of-core page store.
  bool paged = false;
  /// Buffer-cache budget for the page store, in MiB.
  size_t cache_mb = 8;

  /// Parses one command-line token. Recognized: --paged, --cache-mb=N
  /// (which implies --paged). Returns false when the token is not a serve
  /// flag (the caller treats it as positional).
  bool ParseFlag(std::string_view arg);

  /// The durability layer's view of these options.
  DurableEngineOptions ToDurableOptions() const;
};

}  // namespace strg::server

#endif  // STRG_SERVER_SERVE_OPTIONS_H_
