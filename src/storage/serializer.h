#ifndef STRG_STORAGE_SERIALIZER_H_
#define STRG_STORAGE_SERIALIZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "distance/sequence.h"
#include "graph/rag.h"
#include "strg/object_graph.h"

namespace strg::storage {

/// Little binary writer: fixed-width little-endian primitives plus
/// varint-length containers. The format is deliberately simple — a video
/// database's OG payloads are append-mostly and read back wholesale.
class Writer {
 public:
  void PutU8(uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutVarint(uint64_t v);
  void PutDouble(double v);
  void PutString(const std::string& s);

  const std::string& bytes() const { return bytes_; }
  std::string Take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

/// Reader over a byte buffer; every getter throws std::out_of_range on
/// truncated input (corrupt files fail loudly, never silently). A
/// fixed-width getter checks the bounds once per value, not once per byte.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  uint8_t GetU8();
  uint32_t GetU32();
  uint64_t GetU64();
  uint64_t GetVarint();
  double GetDouble();
  /// Reads `n` consecutive doubles into out[0, n) after one bounds check
  /// for all of them; bit-identical to `n` GetDouble calls. On truncation
  /// it throws before writing anything.
  void GetDoubles(double* out, size_t n);
  std::string GetString();

  bool AtEnd() const { return pos_ == bytes_.size(); }
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  [[noreturn]] static void Truncated();
  void Need(size_t n) const;
  std::string_view bytes_;
  size_t pos_ = 0;
};

// ---- Domain-type codecs -------------------------------------------------

void EncodeNodeAttr(const graph::NodeAttr& attr, Writer* w);
graph::NodeAttr DecodeNodeAttr(Reader* r);

void EncodeSequence(const dist::Sequence& seq, Writer* w);
/// Decodes into `*seq`, reusing its capacity (a caller that keeps one
/// Sequence across decodes stops allocating once it has seen its longest
/// sequence). Throws std::out_of_range on truncated input, leaving `*seq`
/// unspecified.
void DecodeSequence(Reader* r, dist::Sequence* seq);

void EncodeOg(const core::Og& og, Writer* w);
core::Og DecodeOg(Reader* r);

void EncodeRag(const graph::Rag& rag, Writer* w);
graph::Rag DecodeRag(Reader* r);

void EncodeBackgroundGraph(const core::BackgroundGraph& bg, Writer* w);
core::BackgroundGraph DecodeBackgroundGraph(Reader* r);

}  // namespace strg::storage

#endif  // STRG_STORAGE_SERIALIZER_H_
