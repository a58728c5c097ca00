#include "store/adapters.hpp"

#include "store/codec.hpp"

namespace hybridic::store {

ProfileStoreL2::ProfileStoreL2(std::shared_ptr<Store> backing)
    : backing_(std::move(backing)) {}

std::string ProfileStoreL2::store_key(const std::string& l1_key) {
  return "profile/rev=" + std::to_string(kEngineRevision) + "/" + l1_key;
}

std::shared_ptr<const apps::ProfiledApp> ProfileStoreL2::load(
    const std::string& key) {
  const std::optional<std::string> payload = backing_->get(store_key(key));
  if (!payload.has_value()) {
    return nullptr;
  }
  return decode_profile(*payload);  // nullptr on damage — a miss.
}

void ProfileStoreL2::store(const std::string& key,
                           const apps::ProfiledApp& app) {
  try {
    backing_->put(store_key(key), encode_profile(app));
  } catch (...) {
    store_failures_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::uint64_t ProfileStoreL2::store_failures() const {
  return store_failures_.load(std::memory_order_relaxed);
}

}  // namespace hybridic::store
