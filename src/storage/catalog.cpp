#include "storage/catalog.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "storage/file_io.h"
#include "storage/wal.h"

namespace strg::storage {

void Catalog::AddSegment(CatalogSegment segment) {
  segments_.push_back(std::move(segment));
}

void Catalog::AppendOg(size_t segment_index, core::Og og) {
  segments_.at(segment_index).ogs.push_back(std::move(og));
}

size_t Catalog::TotalOgs() const {
  size_t n = 0;
  for (const CatalogSegment& s : segments_) n += s.ogs.size();
  return n;
}

void EncodeCatalogSegment(const CatalogSegment& s, Writer* w) {
  w->PutString(s.video_name);
  w->PutU32(static_cast<uint32_t>(s.frame_width));
  w->PutU32(static_cast<uint32_t>(s.frame_height));
  w->PutU64(s.num_frames);
  EncodeBackgroundGraph(s.background, w);
  w->PutVarint(s.ogs.size());
  for (const core::Og& og : s.ogs) EncodeOg(og, w);
}

CatalogSegment DecodeCatalogSegment(Reader* r) {
  CatalogSegment s;
  s.video_name = r->GetString();
  s.frame_width = static_cast<int>(r->GetU32());
  s.frame_height = static_cast<int>(r->GetU32());
  s.num_frames = r->GetU64();
  s.background = DecodeBackgroundGraph(r);
  const size_t ogs = static_cast<size_t>(r->GetVarint());
  s.ogs.reserve(std::min(ogs, r->remaining()));  // a bad count cannot OOM
  for (size_t j = 0; j < ogs; ++j) s.ogs.push_back(DecodeOg(r));
  return s;
}

namespace {

api::Status Corrupt(const std::string& what) {
  return api::Status::Corruption("Catalog: " + what);
}

}  // namespace

api::Status Catalog::TrySaveToFile(const std::string& path,
                                   uint64_t user_data) const {
  // kOnPublish: the frames go out unsynced and the one Sync() below makes
  // the whole file durable. Create truncates, so a stale file left at
  // `path` (a crashed compaction's tmp) is replaced, never extended.
  api::StatusOr<WalWriter> out =
      WalWriter::Create(path, WalOptions{WalSyncPolicy::kOnPublish});
  if (!out.ok()) return out.status();
  Writer header;
  header.PutU32(kMagic);
  header.PutU32(kVersion);
  header.PutU64(user_data);
  header.PutVarint(segments_.size());
  api::Status st = out->Append(header.bytes());
  for (size_t i = 0; st.ok() && i < segments_.size(); ++i) {
    Writer frame;  // one encoded segment in memory at a time
    EncodeCatalogSegment(segments_[i], &frame);
    st = out->Append(frame.bytes());
  }
  if (!st.ok()) return st;
  return out->Sync();
}

api::StatusOr<Catalog> Catalog::TryLoadFromFile(const std::string& path,
                                                uint64_t* user_data) {
  api::StatusOr<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  api::StatusOr<Catalog> catalog = TryDecode(bytes.value(), user_data);
  if (!catalog.ok()) {
    return api::Status(catalog.status().code(),
                       catalog.status().message() + " (" + path + ")");
  }
  return catalog;
}

api::StatusOr<Catalog> Catalog::TryDecode(std::string_view bytes,
                                          uint64_t* user_data) {
  const FrameScan scan = ScanFrames(bytes);
  if (scan.valid_bytes != bytes.size()) {
    return Corrupt("torn or checksum-failing frame at byte " +
                   std::to_string(scan.valid_bytes));
  }
  if (scan.payloads.empty()) return Corrupt("no header frame");
  // The Reader throws std::out_of_range on truncation (and a vector may
  // throw std::length_error on an implausible count); both become one
  // typed kCorruption outcome.
  try {
    Reader header(scan.payloads[0]);
    if (header.GetU32() != kMagic) {
      return Corrupt("bad magic (not a STRG catalog)");
    }
    const uint32_t version = header.GetU32();
    if (version != kVersion) {
      return Corrupt("unsupported version " + std::to_string(version));
    }
    const uint64_t data = header.GetU64();
    const uint64_t count = header.GetVarint();
    if (!header.AtEnd()) return Corrupt("trailing bytes in header frame");
    if (count != scan.payloads.size() - 1) {
      return Corrupt("header names " + std::to_string(count) +
                     " segment(s) but " +
                     std::to_string(scan.payloads.size() - 1) +
                     " segment frame(s) follow");
    }
    Catalog catalog;
    catalog.segments_.reserve(scan.payloads.size() - 1);
    for (size_t i = 1; i < scan.payloads.size(); ++i) {
      Reader r(scan.payloads[i]);
      catalog.AddSegment(DecodeCatalogSegment(&r));
      if (!r.AtEnd()) {
        return Corrupt("trailing bytes in segment frame " + std::to_string(i));
      }
    }
    if (user_data != nullptr) *user_data = data;
    return catalog;
  } catch (const std::out_of_range&) {
    return Corrupt("truncated frame payload");
  } catch (const std::length_error&) {
    return Corrupt("implausible length field");
  }
}

}  // namespace strg::storage
