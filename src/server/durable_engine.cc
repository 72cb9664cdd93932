#include "server/durable_engine.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "core/persistence.h"
#include "storage/serializer.h"

namespace strg::server {

namespace {

namespace fs = std::filesystem;

// WAL payload op tags.
constexpr uint8_t kOpAddVideo = 1;
constexpr uint8_t kOpAddObjectGraph = 2;

void EncodeScaling(const dist::FeatureScaling& s, storage::Writer* w) {
  w->PutDouble(s.frame_width);
  w->PutDouble(s.frame_height);
  w->PutDouble(s.position_weight);
  w->PutDouble(s.size_weight);
  w->PutDouble(s.color_weight);
}

dist::FeatureScaling DecodeScaling(storage::Reader* r) {
  dist::FeatureScaling s;
  s.frame_width = r->GetDouble();
  s.frame_height = r->GetDouble();
  s.position_weight = r->GetDouble();
  s.size_weight = r->GetDouble();
  s.color_weight = r->GetDouble();
  return s;
}

uint64_t PayloadSeq(std::string_view payload) {
  storage::Reader r(payload);
  return r.GetU64();
}

}  // namespace

std::string DurableQueryEngine::SnapshotPath(const std::string& wal_dir) {
  return wal_dir + "/catalog.snap";
}
std::string DurableQueryEngine::SnapshotTmpPath(const std::string& wal_dir) {
  return wal_dir + "/catalog.snap.tmp";
}
std::string DurableQueryEngine::LogPath(const std::string& wal_dir) {
  return wal_dir + "/wal.log";
}
std::string DurableQueryEngine::StorePath(const std::string& wal_dir) {
  return wal_dir + "/store.pages";
}

DurableQueryEngine::DurableQueryEngine(
    std::string wal_dir, index::StrgIndexParams params,
    DurableEngineOptions opts,
    std::unique_ptr<storage::PagedRecordStore> og_store)
    : wal_dir_(std::move(wal_dir)),
      opts_(opts),
      og_store_(std::move(og_store)),
      engine_(params, opts.engine) {}

api::StatusOr<std::unique_ptr<DurableQueryEngine>> DurableQueryEngine::Open(
    const std::string& wal_dir, index::StrgIndexParams params,
    DurableEngineOptions opts) {
  std::unique_ptr<storage::PagedRecordStore> store;
  if (opts.storage.paged) {
    // The leaf store is derived data: recreated (truncated) at every open,
    // then refilled by the deterministic index rebuild during recovery.
    // Durability lives in the snapshot + WAL, never in store.pages — which
    // is also what reclaims space orphaned by Remove/compaction churn.
    std::error_code ec;
    fs::create_directories(wal_dir, ec);
    if (ec) {
      return api::Status::IoError("open: cannot create " + wal_dir + ": " +
                                  ec.message());
    }
    api::StatusOr<std::unique_ptr<storage::PagedRecordStore>> created =
        storage::PagedRecordStore::Create(StorePath(wal_dir), opts.storage);
    if (!created.ok()) return created.status();
    store = std::move(created).value();
    params.paged_store = store.get();
  }
  std::unique_ptr<DurableQueryEngine> engine(
      new DurableQueryEngine(wal_dir, params, opts, std::move(store)));
  api::Status st = engine->Recover();
  if (!st.ok()) return st;
  if (engine->og_store_ != nullptr) {
    // Flush the rebuilt leaf records so the on-disk file is self-describing
    // (strgtool stat audits it offline); correctness never depends on this
    // — the store is recreated at the next open regardless.
    st = engine->og_store_->Commit();
    if (!st.ok()) return st;
    // Wired once before the engine is shared; ToJson reads it lock-free.
    engine->engine_.mutable_metrics().storage_cache.store(
        engine->og_store_->cache(), std::memory_order_release);
  }
  return engine;
}

api::Status DurableQueryEngine::Recover() {
  // Uncontended at open (nothing else can reach the engine yet); holding
  // the ingest lock keeps the guarded-field proofs uniform.
  MutexLock lock(ingest_mu_);
  const auto start = std::chrono::steady_clock::now();
  std::error_code ec;
  fs::create_directories(wal_dir_, ec);
  if (ec) {
    return api::Status::IoError("recovery: cannot create " + wal_dir_ + ": " +
                                ec.message());
  }

  // 0. Builds before the one catalog format published paged-mode
  //    snapshots as catalog.pages. Recovering from the log alone would
  //    silently drop everything that file holds, so refuse and leave it.
  const std::string legacy = wal_dir_ + "/catalog.pages";
  if (fs::exists(legacy, ec)) {
    return api::Status::Corruption(
        "recovery: " + legacy +
        " is a catalog snapshot from an older build, which this build "
        "cannot read; its OGs are not in catalog.snap or the log");
  }

  // 1. Leftover *.tmp files mean a compaction died before publishing; the
  //    live snapshot is still the previous, complete one. Sweep them all —
  //    orphan tmps are pure garbage whatever wrote them.
  for (const fs::directory_entry& entry :
       fs::directory_iterator(wal_dir_, ec)) {
    if (ec) break;
    std::error_code entry_ec;
    if (!entry.is_regular_file(entry_ec)) continue;
    if (!entry.path().filename().string().ends_with(".tmp")) continue;
    fs::remove(entry.path(), entry_ec);
    if (entry_ec) {
      return api::Status::IoError("recovery: cannot remove orphan tmp " +
                                  entry.path().string() + ": " +
                                  entry_ec.message());
    }
    recovery_.removed_orphan_tmp = true;
  }

  // 2. Snapshot: the bulk of the state, loaded in one deterministic
  //    rebuild. Its user_data is the last WAL sequence it covers. Any
  //    damage is fatal (kCorruption) — the log alone cannot prove it holds
  //    the complete history.
  uint64_t applied_seq = 0;
  api::StatusOr<storage::Catalog> loaded =
      storage::Catalog::TryLoadFromFile(SnapshotPath(wal_dir_), &applied_seq);
  if (loaded.ok()) {
    catalog_ = std::move(loaded).value();
  } else if (loaded.status().code() != api::StatusCode::kNotFound) {
    return loaded.status();
  }
  for (const storage::CatalogSegment& s : catalog_.segments()) {
    engine_.AddVideo(s.video_name, api::FromCatalogSegment(s));
    recovery_.snapshot_ogs += s.ogs.size();
  }
  recovery_.snapshot_segments = catalog_.NumSegments();
  next_seq_ = applied_seq + 1;

  // 3+4. Log: CRC-validate (truncating any torn/corrupt tail), then replay
  //      records newer than the snapshot through the normal ingest path.
  api::StatusOr<storage::WalRecovery> scanned =
      storage::RecoverWal(LogPath(wal_dir_));
  if (!scanned.ok()) return scanned.status();
  recovery_.tail_truncated = scanned->tail_truncated;
  log_records_ = scanned->records.size();
  for (std::string_view payload : scanned->records) {
    uint64_t seq = 0;
    try {
      seq = PayloadSeq(payload);
    } catch (const std::out_of_range&) {
      return api::Status::Corruption("recovery: WAL record too short");
    }
    if (seq <= applied_seq) {
      // Already folded into the snapshot (crash between snapshot rename
      // and log reset): skip, never double-apply.
      ++recovery_.stale_records;
      continue;
    }
    api::Status st = ApplyRecord(payload, &seq);
    if (!st.ok()) return st;
    ++recovery_.replayed_records;
    if (seq >= next_seq_) next_seq_ = seq + 1;
  }

  // Generation tokens equal WAL sequence numbers in this engine, so after
  // a snapshot rebuild (which collapses many original publishes into a few)
  // the counter is fast-forwarded to the last applied sequence — an acked
  // generation from before the crash is never "in the future" after it.
  engine_.RestoreGeneration(next_seq_ - 1);

  api::StatusOr<storage::WalWriter> writer =
      storage::WalWriter::Open(LogPath(wal_dir_), opts_.wal);
  if (!writer.ok()) return writer.status();
  wal_ = std::move(writer).value();

  recovery_.replay_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return api::Status::Ok();
}

api::Status DurableQueryEngine::ApplyRecord(std::string_view payload,
                                            uint64_t* seq) {
  try {
    storage::Reader r(payload);
    *seq = r.GetU64();
    const uint8_t op = r.GetU8();
    if (op == kOpAddVideo) {
      storage::CatalogSegment seg = storage::DecodeCatalogSegment(&r);
      engine_.AddVideo(seg.video_name, api::FromCatalogSegment(seg));
      catalog_.AddSegment(std::move(seg));
      return api::Status::Ok();
    }
    if (op == kOpAddObjectGraph) {
      const size_t segment_id = static_cast<size_t>(r.GetVarint());
      std::string video = r.GetString();
      dist::FeatureScaling scaling = DecodeScaling(&r);
      core::Og og = storage::DecodeOg(&r);
      if (segment_id >= catalog_.NumSegments()) {
        return api::Status::Corruption(
            "recovery: WAL AddObjectGraph names unknown segment");
      }
      engine_.AddObjectGraph(static_cast<int>(segment_id), video, og,
                             scaling);
      catalog_.AppendOg(segment_id, std::move(og));
      return api::Status::Ok();
    }
    return api::Status::Corruption("recovery: unknown WAL op " +
                                   std::to_string(op));
  } catch (const std::out_of_range&) {
    return api::Status::Corruption("recovery: truncated WAL payload");
  }
}

api::StatusOr<uint64_t> DurableQueryEngine::AddVideo(
    const std::string& name, const api::SegmentResult& segment,
    int* segment_id) {
  MutexLock lock(ingest_mu_);
  storage::CatalogSegment seg = api::ToCatalogSegment(name, segment);

  storage::Writer w;
  w.PutU64(next_seq_);
  w.PutU8(kOpAddVideo);
  storage::EncodeCatalogSegment(seg, &w);
  api::Status st = wal_.Append(w.bytes());
  if (!st.ok()) return st;  // nothing published: the ack stays honest
  if (fail_point_ == FailPoint::kAfterWalAppend) {
    return api::Status::IoError("fail point: crashed after WAL append");
  }
  ++next_seq_;
  ++log_records_;

  catalog_.AddSegment(std::move(seg));
  uint64_t gen = engine_.AddVideo(name, segment, segment_id);

  ServerMetrics& m = engine_.mutable_metrics();
  m.wal_appends.store(wal_.records_appended(), std::memory_order_relaxed);
  m.wal_synced_bytes.store(wal_.bytes_appended(), std::memory_order_relaxed);
  m.wal_syncs.store(wal_.syncs(), std::memory_order_relaxed);

  if (opts_.compact_every != 0 && log_records_ >= opts_.compact_every) {
    st = CompactLocked();
    if (!st.ok()) return st;  // the ingest itself is durable; surfacing the
                              // failed compaction beats hiding it
  }
  return gen;
}

api::StatusOr<uint64_t> DurableQueryEngine::AddObjectGraph(
    int segment_id, const std::string& video, const core::Og& og,
    const dist::FeatureScaling& scaling) {
  if (segment_id < 0) {
    return api::Status::InvalidArgument("AddObjectGraph: negative segment id");
  }
  MutexLock lock(ingest_mu_);
  if (static_cast<size_t>(segment_id) >= catalog_.NumSegments()) {
    return api::Status::NotFound("AddObjectGraph: unknown segment " +
                                 std::to_string(segment_id));
  }

  storage::Writer w;
  w.PutU64(next_seq_);
  w.PutU8(kOpAddObjectGraph);
  w.PutVarint(static_cast<uint64_t>(segment_id));
  w.PutString(video);
  EncodeScaling(scaling, &w);
  storage::EncodeOg(og, &w);
  api::Status st = wal_.Append(w.bytes());
  if (!st.ok()) return st;
  if (fail_point_ == FailPoint::kAfterWalAppend) {
    return api::Status::IoError("fail point: crashed after WAL append");
  }
  ++next_seq_;
  ++log_records_;

  catalog_.AppendOg(static_cast<size_t>(segment_id), og);
  uint64_t gen = engine_.AddObjectGraph(segment_id, video, og, scaling);

  ServerMetrics& m = engine_.mutable_metrics();
  m.wal_appends.store(wal_.records_appended(), std::memory_order_relaxed);
  m.wal_synced_bytes.store(wal_.bytes_appended(), std::memory_order_relaxed);
  m.wal_syncs.store(wal_.syncs(), std::memory_order_relaxed);

  if (opts_.compact_every != 0 && log_records_ >= opts_.compact_every) {
    st = CompactLocked();
    if (!st.ok()) return st;
  }
  return gen;
}

api::Status DurableQueryEngine::CompactLocked() {
  // Publish protocol: tmp write + fsync, rename over the live snapshot,
  // directory fsync, then (and only then) reset the log. A crash at any
  // point leaves either the old snapshot + full log, or the new snapshot
  // + a log whose records are all <= applied_seq and thus skipped.
  const std::string tmp = SnapshotTmpPath(wal_dir_);
  const std::string live = SnapshotPath(wal_dir_);
  api::Status st = catalog_.TrySaveToFile(tmp, /*user_data=*/next_seq_ - 1);
  if (!st.ok()) return st;
  if (fail_point_ == FailPoint::kAfterSnapshotTmpWrite) {
    return api::Status::IoError(
        "fail point: crashed after tmp snapshot write");
  }
  if (std::rename(tmp.c_str(), live.c_str()) != 0) {
    return api::Status::IoError("snapshot: rename failed: " +
                                std::string(std::strerror(errno)));
  }
  st = storage::SyncDir(wal_dir_);
  if (!st.ok()) return st;
  if (fail_point_ == FailPoint::kAfterSnapshotRename) {
    return api::Status::IoError("fail point: crashed after snapshot rename");
  }

  st = wal_.Reset();
  if (!st.ok()) return st;
  log_records_ = 0;
  engine_.mutable_metrics().wal_compactions.fetch_add(
      1, std::memory_order_relaxed);
  if (og_store_ != nullptr) {
    // Each publish point also commits the leaf store: the page file on
    // disk then matches the snapshot just published, so offline audits
    // (strgtool stat) see real occupancy instead of a stale header.
    st = og_store_->Commit();
    if (!st.ok()) return st;
  }
  return api::Status::Ok();
}

api::Status DurableQueryEngine::Compact() {
  MutexLock lock(ingest_mu_);
  return CompactLocked();
}

api::Status DurableQueryEngine::Sync() {
  MutexLock lock(ingest_mu_);
  api::Status st = wal_.Sync();
  engine_.mutable_metrics().wal_syncs.store(wal_.syncs(),
                                            std::memory_order_relaxed);
  if (!st.ok()) return st;
  if (og_store_ != nullptr) {
    // Keep the on-disk page file self-describing (header page counts,
    // flushed frames) for offline audits; recovery never reads it.
    st = og_store_->Commit();
  }
  return st;
}

}  // namespace strg::server
