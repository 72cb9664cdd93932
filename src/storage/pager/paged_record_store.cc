#include "storage/pager/paged_record_store.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "storage/crc32c.h"

namespace strg::storage {

namespace {

// Slot header: [u8 flags][u32 len], then len bytes.
constexpr size_t kSlotHeaderBytes = 5;
constexpr uint8_t kInline = 0;
constexpr uint8_t kChained = 1;

// Chained-slot stub payload: [u32 overflow head page][u64 total length].
constexpr size_t kChainStubBytes = 12;

constexpr uint64_t kMaxSlot = 0xFFFF;

uint32_t PageOf(uint64_t record_id) {
  return static_cast<uint32_t>(record_id >> 16);
}
uint32_t SlotOf(uint64_t record_id) {
  return static_cast<uint32_t>(record_id & kMaxSlot);
}

/// One slot of a data page.
struct Slot {
  uint8_t flags = 0;
  std::string_view bytes;  ///< the record, or its chain stub
};

enum class SlotWalk { kSlot, kEnd, kBad };

/// Decodes the slot at byte `*off` of a data page's payload into `*out` and
/// advances `*off` past it. kEnd past the last slot; kBad when the slot
/// overruns the page or carries a malformed stub.
SlotWalk NextSlot(std::string_view payload, size_t* off, Slot* out) {
  if (*off + kSlotHeaderBytes > payload.size()) return SlotWalk::kEnd;
  out->flags = static_cast<uint8_t>(payload[*off]);
  const size_t len = GetLe32(payload.data() + *off + 1);
  if (len > payload.size() - *off - kSlotHeaderBytes ||
      out->flags > kChained ||
      (out->flags == kChained && len != kChainStubBytes)) {
    return SlotWalk::kBad;
  }
  out->bytes = payload.substr(*off + kSlotHeaderBytes, len);
  *off += kSlotHeaderBytes + len;
  return SlotWalk::kSlot;
}

/// Walks `payload` to slot `slot`: kNotFound when the page has fewer
/// slots, kCorruption when a slot on the way is malformed.
api::StatusOr<Slot> FindSlot(std::string_view payload, uint32_t page,
                             uint32_t slot) {
  size_t off = 0;
  Slot out;
  for (uint32_t i = 0; i <= slot; ++i) {
    switch (NextSlot(payload, &off, &out)) {
      case SlotWalk::kSlot:
        break;
      case SlotWalk::kEnd:
        return api::Status::NotFound("record store: no slot " +
                                     std::to_string(slot) + " on page " +
                                     std::to_string(page));
      case SlotWalk::kBad:
        return api::Status::Corruption("record store: bad slot " +
                                       std::to_string(i) + " on page " +
                                       std::to_string(page));
    }
  }
  return out;
}

uint64_t ChainLength(const char* stub) { return GetLe64(stub + 4); }

}  // namespace

api::StatusOr<std::unique_ptr<PagedRecordStore>> PagedRecordStore::Create(
    const std::string& path, const StorageParams& params) {
  api::StatusOr<std::unique_ptr<PageFile>> file =
      PageFile::Create(path, params.page_size);
  if (!file.ok()) return file.status();
  std::unique_ptr<PagedRecordStore> store(new PagedRecordStore());
  store->file_ = std::move(file).value();
  store->cache_ = std::make_unique<BufferCache>(
      store->file_.get(), params.cache_bytes, params.cache_shards);
  return store;
}

api::Status PagedRecordStore::RollTailLocked() {
  const uint32_t tail = tail_page_.load(std::memory_order_relaxed);
  if (tail != PageFile::kNoPage) {
    api::Status st =
        file_->WritePage(tail, PageFile::kDataPage, PageFile::kNoPage,
                         tail_buf_);
    if (!st.ok()) return st;
  }
  api::StatusOr<uint32_t> page = file_->Allocate();
  if (!page.ok()) return page.status();
  tail_buf_.clear();
  tail_slots_ = 0;
  // Release: a reader that sees the new tail id also sees the old tail's
  // page on disk, so it may pin it.
  tail_page_.store(page.value(), std::memory_order_release);
  return api::Status::Ok();
}

api::StatusOr<uint32_t> PagedRecordStore::WriteOverflowChainLocked(
    std::string_view bytes) {
  const size_t cap = file_->payload_capacity();
  api::StatusOr<uint32_t> head = file_->Allocate();
  if (!head.ok()) return head.status();
  uint32_t page = head.value();
  for (size_t off = 0; off < bytes.size(); off += cap) {
    const size_t len = std::min(cap, bytes.size() - off);
    uint32_t next = PageFile::kNoPage;
    if (off + len < bytes.size()) {
      api::StatusOr<uint32_t> allocated = file_->Allocate();
      if (!allocated.ok()) return allocated.status();
      next = allocated.value();
    }
    api::Status st = file_->WritePage(page, PageFile::kOverflowPage, next,
                                      bytes.substr(off, len));
    if (!st.ok()) return st;
    page = next;
  }
  return head;
}

api::StatusOr<uint64_t> PagedRecordStore::Append(std::string_view bytes) {
  MutexLock lock(mu_);
  const size_t cap = file_->payload_capacity();

  const bool inlined = kSlotHeaderBytes + bytes.size() <= cap;
  const size_t slot_len = inlined ? bytes.size() : kChainStubBytes;

  if (tail_page_.load(std::memory_order_relaxed) == PageFile::kNoPage ||
      tail_buf_.size() + kSlotHeaderBytes + slot_len > cap ||
      tail_slots_ > kMaxSlot) {
    api::Status st = RollTailLocked();
    if (!st.ok()) return st;
  }

  char stub[kChainStubBytes] = {};
  std::string_view slot_bytes = bytes;
  if (!inlined) {
    api::StatusOr<uint32_t> head = WriteOverflowChainLocked(bytes);
    if (!head.ok()) return head.status();
    PutLe32(stub, head.value());
    PutLe32(stub + 4, static_cast<uint32_t>(bytes.size()));
    PutLe32(stub + 8, static_cast<uint32_t>(bytes.size() >> 32));
    slot_bytes = std::string_view(stub, kChainStubBytes);
  }

  const uint64_t page = tail_page_.load(std::memory_order_relaxed);
  const uint32_t slot = tail_slots_;
  const size_t off = tail_buf_.size();
  tail_buf_.resize(off + kSlotHeaderBytes + slot_bytes.size());
  tail_buf_[off] = static_cast<char>(inlined ? kInline : kChained);
  PutLe32(tail_buf_.data() + off + 1,
          static_cast<uint32_t>(slot_bytes.size()));
  if (!slot_bytes.empty()) {
    std::memcpy(tail_buf_.data() + off + kSlotHeaderBytes, slot_bytes.data(),
                slot_bytes.size());
  }
  ++tail_slots_;
  return (page << 16) | slot;
}

api::Status PagedRecordStore::ReadChain(const char* stub,
                                        std::string* spill) {
  const uint64_t total = ChainLength(stub);
  spill->clear();
  uint32_t next = GetLe32(stub);
  while (next != PageFile::kNoPage && spill->size() < total) {
    api::StatusOr<BufferCache::PageRef> chunk = cache_->Pin(next);
    if (!chunk.ok()) return chunk.status();
    if (chunk.value().type() != PageFile::kOverflowPage) {
      return api::Status::Corruption(
          "record store: overflow chain hit a non-overflow page " +
          std::to_string(next));
    }
    spill->append(chunk.value().payload());
    next = chunk.value().next_page();
  }
  if (spill->size() != total) {
    return api::Status::Corruption(
        "record store: overflow chain is short: got " +
        std::to_string(spill->size()) + " of " + std::to_string(total) +
        " bytes");
  }
  return api::Status::Ok();
}

api::StatusOr<PagedRecordStore::RecordRef> PagedRecordStore::Read(
    uint64_t record_id, std::string* spill) {
  if (record_id == kNoRecord) {
    return api::Status::InvalidArgument("record store: read of kNoRecord");
  }
  const uint32_t page = PageOf(record_id);
  const uint32_t slot = SlotOf(record_id);
  RecordRef out;
  char stub[kChainStubBytes] = {};
  bool stub_from_tail = false;

  if (page == tail_page_.load(std::memory_order_acquire)) {
    MutexLock lock(mu_);
    // Recheck: the tail may have been sealed since the load above, and
    // then its page is read like any other sealed page.
    if (page == tail_page_.load(std::memory_order_relaxed)) {
      api::StatusOr<Slot> found = FindSlot(tail_buf_, page, slot);
      if (!found.ok()) return found.status();
      if (found.value().flags == kInline) {
        spill->assign(found.value().bytes);
        out.bytes_ = *spill;
        return out;
      }
      // Only the stub is on the tail page; the overflow pages are sealed,
      // so the chain is read below, without the store mutex.
      std::memcpy(stub, found.value().bytes.data(), kChainStubBytes);
      stub_from_tail = true;
    }
  }

  if (!stub_from_tail) {
    api::StatusOr<BufferCache::PageRef> pin = cache_->Pin(page);
    if (!pin.ok()) return pin.status();
    if (pin.value().type() != PageFile::kDataPage) {
      return api::Status::NotFound("record store: page " +
                                   std::to_string(page) +
                                   " holds no records");
    }
    api::StatusOr<Slot> found = FindSlot(pin.value().payload(), page, slot);
    if (!found.ok()) return found.status();
    if (found.value().flags == kInline) {
      out.bytes_ = found.value().bytes;
      out.pin_ = std::move(pin).value();
      return out;
    }
    std::memcpy(stub, found.value().bytes.data(), kChainStubBytes);
  }  // the data-page pin drops before the chain is chased

  api::Status st = ReadChain(stub, spill);
  if (!st.ok()) return st;
  out.bytes_ = *spill;
  return out;
}

api::Status PagedRecordStore::Commit() {
  {
    MutexLock lock(mu_);
    const uint32_t tail = tail_page_.load(std::memory_order_relaxed);
    if (tail != PageFile::kNoPage) {
      api::Status st = file_->WritePage(tail, PageFile::kDataPage,
                                        PageFile::kNoPage, tail_buf_);
      if (!st.ok()) return st;
    }
    api::Status st = file_->WriteHeader();
    if (!st.ok()) return st;
  }
  return file_->Sync();
}

api::StatusOr<PageFileStats> ComputePageFileStats(const std::string& path) {
  api::StatusOr<std::unique_ptr<PageFile>> open = PageFile::Open(path);
  if (!open.ok()) return open.status();
  std::unique_ptr<PageFile> file = std::move(open).value();

  PageFileStats stats;
  stats.page_size = file->page_size();
  stats.num_pages = file->num_pages();

  for (uint64_t p = 1; p < stats.num_pages; ++p) {
    PageFile::PageView view;
    api::Status st = file->ReadPage(static_cast<uint32_t>(p), &view);
    if (!st.ok()) return st;
    if (view.type == PageFile::kOverflowPage) {
      ++stats.overflow_pages;
      continue;
    }
    if (view.type != PageFile::kDataPage) {
      return api::Status::Corruption("page file: unexpected page type " +
                                     std::to_string(view.type) +
                                     " at page " + std::to_string(p));
    }
    ++stats.data_pages;
    size_t off = 0;
    Slot slot;
    SlotWalk walk = SlotWalk::kEnd;
    while ((walk = NextSlot(view.payload, &off, &slot)) == SlotWalk::kSlot) {
      ++stats.records;
      // A chained record's stub carries the length of its overflow chain.
      stats.record_bytes += slot.flags == kChained
                                ? ChainLength(slot.bytes.data())
                                : slot.bytes.size();
    }
    if (walk == SlotWalk::kBad) {
      return api::Status::Corruption("page file: bad slot on page " +
                                     std::to_string(p));
    }
  }
  return stats;
}

}  // namespace strg::storage
