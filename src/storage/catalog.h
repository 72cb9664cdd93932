#ifndef STRG_STORAGE_CATALOG_H_
#define STRG_STORAGE_CATALOG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/status.h"
#include "storage/serializer.h"
#include "strg/object_graph.h"

namespace strg::storage {

/// Everything worth persisting about one processed video segment: the
/// compressed background graph, the extracted object graphs, and the frame
/// geometry needed to rebuild feature scalings.
struct CatalogSegment {
  std::string video_name;
  int frame_width = 0;
  int frame_height = 0;
  uint64_t num_frames = 0;
  core::BackgroundGraph background;
  std::vector<core::Og> ogs;
};

/// Segment codec, shared by the catalog file's segment frames and the
/// WAL's AddVideo record payloads (one wire format, two containers).
void EncodeCatalogSegment(const CatalogSegment& s, Writer* w);
CatalogSegment DecodeCatalogSegment(Reader* r);

/// On-disk catalog of processed video segments.
///
/// The catalog stores the pipeline's *artifacts* (OGs and BGs), not the
/// index: the STRG-Index build is deterministic given its parameters, so a
/// reload rebuilds an identical index from the catalog — the same policy
/// the paper's size analysis assumes (the index is small and lives in
/// memory; the OG payloads are the durable data).
///
/// File format: one run of WAL frames (storage/wal.h),
/// `[u32 len][u32 crc32c][payload]`, written and scanned by the WAL's own
/// code. Frame 0 is the header `[u32 kMagic][u32 kVersion][u64 user_data]
/// [varint segment count]`; each later frame is one EncodeCatalogSegment
/// payload. The same file serves as the durable engine's `catalog.snap`
/// (whatever its storage mode) and as a strgtool catalog.
///
/// Error surface: every method returns api::Status / api::StatusOr. A
/// missing file is kNotFound and an OS failure kIoError. Anything else
/// short of a well-formed file — a frame that fails its checksum, a torn
/// or trailing frame, a bad magic or version, a segment count that does
/// not match the frames, a segment that does not decode — is kCorruption.
class Catalog {
 public:
  static constexpr uint32_t kMagic = 0x53545247;  // "STRG"
  static constexpr uint32_t kVersion = 2;

  void AddSegment(CatalogSegment segment);

  /// Appends one more OG to an existing segment (the durable mirror of
  /// api::VideoDatabase::AddObjectGraph; used by WAL compaction).
  void AppendOg(size_t segment_index, core::Og og);

  const std::vector<CatalogSegment>& segments() const { return segments_; }
  size_t NumSegments() const { return segments_.size(); }
  size_t TotalOgs() const;

  /// Writes the catalog to `path` (replacing any file there) one segment
  /// frame at a time, then fsyncs once. `user_data` is one caller-owned
  /// u64 carried in the header (the durable engine stores its applied WAL
  /// sequence there).
  api::Status TrySaveToFile(const std::string& path,
                            uint64_t user_data = 0) const;

  /// Reads `path` whole and decodes it with TryDecode.
  static api::StatusOr<Catalog> TryLoadFromFile(
      const std::string& path, uint64_t* user_data = nullptr);

  /// Decodes a whole catalog file image (no I/O). Strict: every frame must
  /// verify, and there must be exactly one header plus `count` segment
  /// frames with nothing after them.
  static api::StatusOr<Catalog> TryDecode(std::string_view bytes,
                                          uint64_t* user_data = nullptr);

  // The throwing wrappers (Deserialize / SaveToFile / LoadFromFile) are
  // REMOVED: this class speaks Status/StatusOr only.
  // scripts/strg_lint.py's strg-deprecated-catalog rule rejects any
  // reintroduction, in this header included.

 private:
  std::vector<CatalogSegment> segments_;
};

}  // namespace strg::storage

#endif  // STRG_STORAGE_CATALOG_H_
