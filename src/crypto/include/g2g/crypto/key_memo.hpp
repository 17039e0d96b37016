// Bounded per-signer memo for the suites' key-dependent precomputation: the
// Schnorr engine's window table for each public key, and the FastSuite's HMAC
// pad states for each MAC key.
//
// A run verifies against one roster of keys (the nodes plus the authority),
// so precomputing once per key and reusing it for every later signature
// turns the per-call cost into a per-signer cost. The memo keeps the suites
// pure and shareable:
//  * keyed by exactly the bytes the uncached computation reads, so a hit can
//    only ever answer for identical inputs;
//  * thread-safe: lookups take a mutex, values are shared_ptr<const T>, so a
//    caller's value stays alive even if another thread clears the map;
//  * bounded: a new key that would pass kMaxKeys entries clears the map first.
//    That is a few rosters, so one run's keys stay warm while a suite shared
//    across many runs (perfbench's seed cycle, a sweep pool) never grows.
#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>

#include "g2g/util/bytes.hpp"

namespace g2g::crypto {

template <typename T>
class KeyMemo {
 public:
  static constexpr std::size_t kMaxKeys = 128;

  /// The value for `key`, computed by `make()` on a miss. make() runs outside
  /// the lock; two threads missing on the same key may both build it, and
  /// either copy is the same value.
  template <typename Make>
  [[nodiscard]] std::shared_ptr<const T> get(BytesView key, Make&& make) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      const auto it = map_.find(key);
      if (it != map_.end()) return it->second;
    }
    auto value = std::make_shared<const T>(make());
    const std::lock_guard<std::mutex> lock(mu_);
    if (map_.size() >= kMaxKeys) map_.clear();
    return map_.try_emplace(Bytes(key.begin(), key.end()), std::move(value)).first->second;
  }

 private:
  struct ByteOrder {
    using is_transparent = void;
    bool operator()(BytesView a, BytesView b) const {
      return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
    }
  };

  std::mutex mu_;
  std::map<Bytes, std::shared_ptr<const T>, ByteOrder> map_;
};

}  // namespace g2g::crypto
