// PagedByteSet: a sparse set of 64-bit byte addresses stored as paged
// bitmaps, used for the profiler's unique-footprint and UMA (unique memory
// address) accounting. Replaces per-byte unordered_set inserts with
// word-granular bitmap updates: an N-byte range costs O(N/64) word ops and
// one hash lookup per 4 KiB page, and popcount gives the exact number of
// freshly inserted addresses — so counts match a byte-by-byte insert loop
// bit for bit.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <unordered_map>

namespace hybridic::prof {

/// Sparse address set with O(1) size() and bulk range insertion.
class PagedByteSet {
public:
  static constexpr std::uint64_t kPageBytes = 4096;

  /// Insert every address in [addr, addr+size); returns how many were not
  /// yet present (the "fresh" count UMA accounting needs).
  std::uint64_t insert_range(std::uint64_t addr, std::uint64_t size) {
    std::uint64_t fresh = 0;
    std::uint64_t pos = addr;
    const std::uint64_t end = addr + size;
    while (pos < end) {
      Page& page = page_for(pos / kPageBytes);
      const std::uint64_t offset = pos % kPageBytes;
      const std::uint64_t in_page = std::min(end - pos, kPageBytes - offset);
      fresh += set_bits(page, offset, in_page);
      pos += in_page;
    }
    count_ += fresh;
    return fresh;
  }

  /// Insert a single address; returns true if it was fresh.
  bool insert(std::uint64_t addr) { return insert_range(addr, 1) != 0; }

  [[nodiscard]] bool contains(std::uint64_t addr) const {
    const auto it = pages_.find(addr / kPageBytes);
    if (it == pages_.end()) {
      return false;
    }
    const std::uint64_t offset = addr % kPageBytes;
    return ((*it->second)[offset / 64] >> (offset % 64) & 1U) != 0;
  }

  /// Number of distinct addresses inserted.
  [[nodiscard]] std::uint64_t size() const { return count_; }

  [[nodiscard]] bool empty() const { return count_ == 0; }

  /// Allocated bitmap pages (memory accounting; kPageBytes/8 bytes each).
  [[nodiscard]] std::size_t page_count() const { return pages_.size(); }

private:
  using Page = std::array<std::uint64_t, kPageBytes / 64>;

  Page& page_for(std::uint64_t key) {
    if (cached_page_ != nullptr && key == cached_key_) {
      return *cached_page_;
    }
    auto& slot = pages_[key];
    if (slot == nullptr) {
      slot = std::make_unique<Page>();
      slot->fill(0);
    }
    cached_key_ = key;
    cached_page_ = slot.get();
    return *slot;
  }

  /// Set `count` bits starting at bit `offset`; returns how many flipped
  /// from 0 to 1.
  static std::uint64_t set_bits(Page& page, std::uint64_t offset,
                                std::uint64_t count) {
    std::uint64_t fresh = 0;
    std::uint64_t bit = offset;
    const std::uint64_t end = offset + count;
    while (bit < end) {
      const std::uint64_t word = bit / 64;
      const std::uint64_t low = bit % 64;
      const std::uint64_t span = std::min<std::uint64_t>(64 - low, end - bit);
      const std::uint64_t mask =
          span == 64 ? ~0ULL : ((1ULL << span) - 1) << low;
      const std::uint64_t added = mask & ~page[word];
      fresh += static_cast<std::uint64_t>(std::popcount(added));
      page[word] |= mask;
      bit += span;
    }
    return fresh;
  }

  std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages_;
  std::uint64_t cached_key_ = 0;
  Page* cached_page_ = nullptr;
  std::uint64_t count_ = 0;
};

}  // namespace hybridic::prof
