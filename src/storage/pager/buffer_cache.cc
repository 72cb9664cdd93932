#include "storage/pager/buffer_cache.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace strg::storage {

BufferCache::BufferCache(const PageFile* file, uint64_t capacity_bytes,
                         size_t shards)
    : file_(file) {
  const size_t n_shards = std::max<size_t>(1, shards);
  size_t frames = static_cast<size_t>(capacity_bytes / file->page_size());
  frames = std::max(frames, n_shards);  // at least one frame per shard
  num_frames_ = frames;

  shards_ = std::vector<Shard>(n_shards);
  for (size_t s = 0; s < n_shards; ++s) {
    // Round-robin split of the frame budget; every frame's payload buffer
    // is allocated once here and never resized, so the data pointers a
    // PageRef aliases stay stable for the cache's whole lifetime.
    const size_t count = frames / n_shards + (s < frames % n_shards ? 1 : 0);
    MutexLock lock(shards_[s].mu);
    shards_[s].frames.resize(count);
    for (size_t f = 0; f < count; ++f) {
      shards_[s].frames[f].data.resize(file->payload_capacity());
      shards_[s].free_frames.push_back(count - 1 - f);  // pop ascending
    }
  }
}

BufferCache::PageRef& BufferCache::PageRef::operator=(
    PageRef&& other) noexcept {
  if (this != &other) {
    Release();
    cache_ = std::exchange(other.cache_, nullptr);
    shard_ = other.shard_;
    frame_ = other.frame_;
    payload_ = other.payload_;
    type_ = other.type_;
    next_page_ = other.next_page_;
    other.payload_ = {};
  }
  return *this;
}

void BufferCache::PageRef::Release() {
  if (cache_ != nullptr) {
    cache_->Unpin(shard_, frame_);
    cache_ = nullptr;
    payload_ = {};
  }
}

void BufferCache::TouchLocked(Shard& s, size_t frame) {
  auto it = s.lru_pos.find(frame);
  if (it != s.lru_pos.end()) {
    // Relink the existing node at the front: no free/malloc under the
    // shard lock, and the iterator in lru_pos stays valid.
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return;
  }
  s.lru.push_front(frame);
  s.lru_pos.emplace(frame, s.lru.begin());
}

void BufferCache::UnlinkLruLocked(Shard& s, size_t frame) {
  auto it = s.lru_pos.find(frame);
  if (it != s.lru_pos.end()) {
    s.lru.erase(it->second);
    s.lru_pos.erase(it);
  }
}

api::StatusOr<size_t> BufferCache::ClaimFrameLocked(Shard& s) {
  if (!s.free_frames.empty()) {
    const size_t frame = s.free_frames.back();
    s.free_frames.pop_back();
    return frame;
  }
  // Evict the least-recently-used unpinned resident frame. Pins don't
  // unlink from the LRU list, so walk from the tail skipping pinned ones.
  for (auto it = s.lru.rbegin(); it != s.lru.rend(); ++it) {
    const size_t frame = *it;
    Frame& f = s.frames[frame];
    if (f.pins != 0) continue;
    s.map.erase(f.page);
    f.page = PageFile::kNoPage;
    UnlinkLruLocked(s, frame);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    return frame;
  }
  return api::Status(api::StatusCode::kOverloaded,
                     "buffer cache: every frame is pinned "
                     "(cache budget exhausted)");
}

api::StatusOr<BufferCache::PageRef> BufferCache::Pin(uint32_t page_id) {
  Shard& s = shard_of(page_id);
  const size_t shard_idx = static_cast<size_t>(&s - shards_.data());

  MutexLock lock(s.mu);
  size_t frame;
  auto it = s.map.find(page_id);
  if (it != s.map.end()) {
    frame = it->second;
    hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    api::StatusOr<size_t> claimed = ClaimFrameLocked(s);
    if (!claimed.ok()) return claimed.status();
    frame = claimed.value();
    Frame& f = s.frames[frame];

    // Fault the page in while holding the shard lock. Single-threaded
    // misses serialize behind this read; acceptable for the shard counts
    // we run (misses are the slow path by definition).
    PageFile::PageView view;
    api::Status st = file_->ReadPage(page_id, &view);
    if (!st.ok()) {
      s.free_frames.push_back(frame);
      return st;
    }
    f.page = page_id;
    f.type = view.type;
    f.next_page = view.next_page;
    f.payload_len = static_cast<uint32_t>(view.payload.size());
    std::memcpy(f.data.data(), view.payload.data(), view.payload.size());
    s.map[page_id] = frame;
  }

  Frame& f = s.frames[frame];
  ++f.pins;
  pinned_.fetch_add(1, std::memory_order_relaxed);
  TouchLocked(s, frame);

  PageRef ref;
  ref.cache_ = this;
  ref.shard_ = shard_idx;
  ref.frame_ = frame;
  ref.payload_ = std::string_view(f.data.data(), f.payload_len);
  ref.type_ = f.type;
  ref.next_page_ = f.next_page;
  return ref;
}

void BufferCache::Unpin(size_t shard, size_t frame) {
  Shard& s = shards_[shard];
  MutexLock lock(s.mu);
  --s.frames[frame].pins;
  pinned_.fetch_sub(1, std::memory_order_relaxed);
}

BufferCacheStats BufferCache::stats() const {
  BufferCacheStats st;
  st.hits = hits_.load(std::memory_order_relaxed);
  st.misses = misses_.load(std::memory_order_relaxed);
  st.evictions = evictions_.load(std::memory_order_relaxed);
  st.pinned_pages = pinned_.load(std::memory_order_relaxed);
  return st;
}

}  // namespace strg::storage
