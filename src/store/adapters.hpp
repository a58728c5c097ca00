// L2 adapter: plug the persistent Store underneath apps::ProfileCache.
//
// Profiling is platform-independent, so the store key is just the L1
// cache key (which canonically encodes the app / every SyntheticConfig
// knob) plus the engine revision. Load failures of any kind surface as a
// miss (nullptr), per the ProfileL2 contract; store failures are
// swallowed after counting — a read-only or full disk degrades to a
// smaller cache, not an error.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "apps/profile_cache.hpp"
#include "store/store.hpp"

namespace hybridic::store {

class ProfileStoreL2 final : public apps::ProfileL2 {
public:
  explicit ProfileStoreL2(std::shared_ptr<Store> backing);

  [[nodiscard]] std::shared_ptr<const apps::ProfiledApp> load(
      const std::string& key) override;
  void store(const std::string& key, const apps::ProfiledApp& app) override;

  /// Full store key for an L1 profile-cache key.
  [[nodiscard]] static std::string store_key(const std::string& l1_key);

  /// store() calls that failed (disk errors); loads never fail, they miss.
  [[nodiscard]] std::uint64_t store_failures() const;

private:
  std::shared_ptr<Store> backing_;
  std::atomic<std::uint64_t> store_failures_{0};
};

}  // namespace hybridic::store
