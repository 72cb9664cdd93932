#ifndef STRG_STORAGE_PAGER_STORAGE_PARAMS_H_
#define STRG_STORAGE_PAGER_STORAGE_PARAMS_H_

#include <cstddef>
#include <cstdint>

namespace strg::storage {

/// Where the index's leaf sequences live.
///
/// `paged` off (the default) keeps them in RAM. `paged` on writes each
/// leaf entry's OG sequence through a PagedRecordStore: a fixed-size-page
/// file on disk fronted by a pinned LRU BufferCache whose resident memory
/// is bounded by `cache_bytes`. No catalog payloads go into the store;
/// the durable catalog is the same file in both modes (storage/catalog.h),
/// so residency is a choice made at each open. Query and ingest results
/// are bit-identical in both modes; only the residency of the bytes
/// changes.
struct StorageParams {
  bool paged = false;

  /// Fixed page size of the store's page files. Small pages make tiny-cache
  /// tests meaningful; 4 KiB matches the filesystem block for production.
  size_t page_size = 4096;

  /// Buffer-cache budget in bytes. The cache allocates
  /// max(cache_shards, cache_bytes / page_size) frames up front and never
  /// grows, so this is a hard bound on resident page memory.
  uint64_t cache_bytes = 8ull << 20;

  /// LRU shard count (locking granularity under concurrent queries).
  size_t cache_shards = 4;
};

}  // namespace strg::storage

#endif  // STRG_STORAGE_PAGER_STORAGE_PARAMS_H_
