#include "prof/shadow_memory.hpp"

#include <algorithm>

namespace hybridic::prof {

ShadowMemory::Page& ShadowMemory::page_for(std::uint64_t addr) {
  const std::uint64_t key = addr / kPageBytes;
  if (cached_page_ != nullptr && key == cached_key_) {
    return *cached_page_;
  }
  auto& slot = pages_[key];
  if (slot == nullptr) {
    slot = std::make_unique<Page>();
    slot->fill(kNoWriter);
  }
  cached_key_ = key;
  cached_page_ = slot.get();
  return *slot;
}

const ShadowMemory::Page* ShadowMemory::page_of(std::uint64_t addr) const {
  return lookup_page(addr / kPageBytes);
}

void ShadowMemory::write(std::uint64_t addr, std::uint64_t size,
                         FunctionId writer) {
  std::uint64_t pos = addr;
  const std::uint64_t end = addr + size;
  while (pos < end) {
    Page& page = page_for(pos);
    const std::uint64_t offset = pos % kPageBytes;
    const std::uint64_t in_page = std::min(end - pos, kPageBytes - offset);
    std::fill_n(page.begin() + static_cast<std::ptrdiff_t>(offset),
                in_page, writer);
    pos += in_page;
  }
}

FunctionId ShadowMemory::last_writer(std::uint64_t addr) const {
  const Page* page = page_of(addr);
  if (page == nullptr) {
    return kNoWriter;
  }
  return (*page)[addr % kPageBytes];
}

}  // namespace hybridic::prof
