#include "server/serve_options.h"

#include <cstdlib>
#include <string>

namespace strg::server {

namespace {

/// "--name=value" -> value as size_t; 0 on malformed input.
size_t FlagValue(std::string_view arg, std::string_view prefix) {
  std::string v(arg.substr(prefix.size()));
  long long n = std::atoll(v.c_str());
  return n > 0 ? static_cast<size_t>(n) : 0;
}

}  // namespace

bool ServeOptions::ParseFlag(std::string_view arg) {
  if (arg == "--paged") {
    paged = true;
    return true;
  }
  if (arg.rfind("--cache-mb=", 0) == 0) {
    paged = true;  // a cache budget implies paged mode
    size_t v = FlagValue(arg, "--cache-mb=");
    if (v > 0) cache_mb = v;
    return true;
  }
  return false;
}

DurableEngineOptions ServeOptions::ToDurableOptions() const {
  DurableEngineOptions opts;
  opts.storage.paged = paged;
  if (paged) opts.storage.cache_bytes = static_cast<uint64_t>(cache_mb) << 20;
  return opts;
}

}  // namespace strg::server
