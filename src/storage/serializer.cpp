#include "storage/serializer.h"

#include <bit>
#include <cstring>
#include <stdexcept>

#include "storage/crc32c.h"

namespace strg::storage {

void Writer::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
}

void Writer::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
}

void Writer::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    PutU8(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  PutU8(static_cast<uint8_t>(v));
}

void Writer::PutDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void Writer::PutString(const std::string& s) {
  PutVarint(s.size());
  bytes_.append(s);
}

void Reader::Truncated() {
  throw std::out_of_range("storage::Reader: truncated input");  // NOLINT(strg-no-throw): Reader contract; Catalog translates to kCorruption
}

void Reader::Need(size_t n) const {
  if (n > remaining()) Truncated();
}

uint8_t Reader::GetU8() {
  Need(1);
  return static_cast<uint8_t>(bytes_[pos_++]);
}

uint32_t Reader::GetU32() {
  Need(4);
  const uint32_t v = GetLe32(bytes_.data() + pos_);
  pos_ += 4;
  return v;
}

uint64_t Reader::GetU64() {
  Need(8);
  const uint64_t v = GetLe64(bytes_.data() + pos_);
  pos_ += 8;
  return v;
}

uint64_t Reader::GetVarint() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (shift > 63) {
      throw std::out_of_range("storage::Reader: varint overflow");  // NOLINT(strg-no-throw): Reader contract; Catalog translates to kCorruption
    }
    uint8_t byte = GetU8();
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

double Reader::GetDouble() { return std::bit_cast<double>(GetU64()); }

void Reader::GetDoubles(double* out, size_t n) {
  if (n > remaining() / sizeof(double)) Truncated();
  if (n == 0) return;
  const char* src = bytes_.data() + pos_;
  if constexpr (std::endian::native == std::endian::little) {
    // The encoding is the little-endian IEEE-754 image: one copy.
    std::memcpy(out, src, n * sizeof(double));
  } else {
    for (size_t i = 0; i < n; ++i) {
      out[i] = std::bit_cast<double>(GetLe64(src + i * sizeof(double)));
    }
  }
  pos_ += n * sizeof(double);
}

std::string Reader::GetString() {
  size_t n = static_cast<size_t>(GetVarint());
  Need(n);
  std::string s(bytes_.substr(pos_, n));
  pos_ += n;
  return s;
}

// ---- Domain-type codecs -------------------------------------------------

void EncodeNodeAttr(const graph::NodeAttr& attr, Writer* w) {
  w->PutDouble(attr.size);
  for (double c : attr.color) w->PutDouble(c);
  w->PutDouble(attr.cx);
  w->PutDouble(attr.cy);
}

graph::NodeAttr DecodeNodeAttr(Reader* r) {
  graph::NodeAttr attr;
  attr.size = r->GetDouble();
  for (double& c : attr.color) c = r->GetDouble();
  attr.cx = r->GetDouble();
  attr.cy = r->GetDouble();
  return attr;
}

void EncodeSequence(const dist::Sequence& seq, Writer* w) {
  w->PutVarint(seq.size());
  for (const dist::FeatureVec& v : seq) {
    for (double x : v) w->PutDouble(x);
  }
}

void DecodeSequence(Reader* r, dist::Sequence* seq) {
  static_assert(sizeof(dist::FeatureVec) == dist::kFeatureDim * sizeof(double),
                "a Sequence must be one contiguous run of doubles");
  size_t n = static_cast<size_t>(r->GetVarint());
  if (n > r->remaining() / (8 * dist::kFeatureDim)) {
    throw std::out_of_range("DecodeSequence: length exceeds buffer");  // NOLINT(strg-no-throw): Reader contract; Catalog translates to kCorruption
  }
  seq->resize(n);
  r->GetDoubles(reinterpret_cast<double*>(seq->data()), n * dist::kFeatureDim);
}

void EncodeOg(const core::Og& og, Writer* w) {
  w->PutU32(static_cast<uint32_t>(og.id));
  w->PutU32(static_cast<uint32_t>(og.start_frame));
  w->PutVarint(og.sequence.size());
  for (const graph::NodeAttr& a : og.sequence) EncodeNodeAttr(a, w);
  w->PutVarint(og.member_orgs.size());
  for (size_t m : og.member_orgs) w->PutVarint(m);
}

core::Og DecodeOg(Reader* r) {
  core::Og og;
  og.id = static_cast<int>(r->GetU32());
  og.start_frame = static_cast<int>(r->GetU32());
  size_t n = static_cast<size_t>(r->GetVarint());
  if (n > r->remaining() / 8) {
    throw std::out_of_range("DecodeOg: length exceeds buffer");  // NOLINT(strg-no-throw): Reader contract; Catalog translates to kCorruption
  }
  og.sequence.reserve(n);
  for (size_t i = 0; i < n; ++i) og.sequence.push_back(DecodeNodeAttr(r));
  size_t members = static_cast<size_t>(r->GetVarint());
  if (members > r->remaining() + 1) {
    throw std::out_of_range("DecodeOg: member count exceeds buffer");  // NOLINT(strg-no-throw): Reader contract; Catalog translates to kCorruption
  }
  og.member_orgs.reserve(members);
  for (size_t i = 0; i < members; ++i) {
    og.member_orgs.push_back(static_cast<size_t>(r->GetVarint()));
  }
  return og;
}

void EncodeRag(const graph::Rag& rag, Writer* w) {
  w->PutVarint(rag.NumNodes());
  for (size_t v = 0; v < rag.NumNodes(); ++v) {
    EncodeNodeAttr(rag.node(static_cast<int>(v)), w);
  }
  w->PutVarint(rag.NumEdges());
  for (size_t v = 0; v < rag.NumNodes(); ++v) {
    for (const graph::Rag::Edge& e : rag.Neighbors(static_cast<int>(v))) {
      if (e.to <= static_cast<int>(v)) continue;  // store each edge once
      w->PutVarint(v);
      w->PutVarint(static_cast<uint64_t>(e.to));
      w->PutDouble(e.attr.distance);
      w->PutDouble(e.attr.orientation);
    }
  }
}

graph::Rag DecodeRag(Reader* r) {
  graph::Rag rag;
  size_t nodes = static_cast<size_t>(r->GetVarint());
  if (nodes > r->remaining() / 8) {
    throw std::out_of_range("DecodeRag: node count exceeds buffer");  // NOLINT(strg-no-throw): Reader contract; Catalog translates to kCorruption
  }
  for (size_t v = 0; v < nodes; ++v) rag.AddNode(DecodeNodeAttr(r));
  size_t edges = static_cast<size_t>(r->GetVarint());
  for (size_t e = 0; e < edges; ++e) {
    int a = static_cast<int>(r->GetVarint());
    int b = static_cast<int>(r->GetVarint());
    graph::SpatialEdgeAttr attr;
    attr.distance = r->GetDouble();
    attr.orientation = r->GetDouble();
    rag.AddEdge(a, b, attr);
  }
  return rag;
}

void EncodeBackgroundGraph(const core::BackgroundGraph& bg, Writer* w) {
  EncodeRag(bg.rag, w);
}

core::BackgroundGraph DecodeBackgroundGraph(Reader* r) {
  core::BackgroundGraph bg;
  bg.rag = DecodeRag(r);
  return bg;
}

}  // namespace strg::storage
