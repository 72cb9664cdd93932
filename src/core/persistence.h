#ifndef STRG_CORE_PERSISTENCE_H_
#define STRG_CORE_PERSISTENCE_H_

#include <string>

#include "core/pipeline.h"
#include "core/video_database.h"
#include "storage/catalog.h"

namespace strg::api {

/// Converts a processed segment into its durable catalog form.
storage::CatalogSegment ToCatalogSegment(const std::string& video_name,
                                         const SegmentResult& segment);

/// The inverse: the minimal SegmentResult a database needs to register a
/// stored segment (geometry, background and OGs). To rebuild a whole
/// database, construct VideoDatabase from the catalog.
SegmentResult FromCatalogSegment(const storage::CatalogSegment& segment);

}  // namespace strg::api

#endif  // STRG_CORE_PERSISTENCE_H_
