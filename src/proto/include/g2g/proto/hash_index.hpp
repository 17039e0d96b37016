// HashIndex: a probe-only open-addressing index over 32-byte message hashes.
//
// The relay state and the run's message table are keyed by H(m) and only ever
// probed: "have I handled m?", "which hold is m?", "which entry is m?".
// HashIndex gives each present hash a dense 32-bit id (erased ids are
// recycled; without erases the ids are 0, 1, 2, ... in insertion order),
// stores the keys densely by id, and finds them through a linear-probing
// table of 8-byte slots: the hash's first four bytes (little-endian) as a
// tag, plus the id. The low tag bits pick the home slot, so the table
// rehashes and deletes by tag alone; a tag match is confirmed against all 32
// key bytes. The table stays at most 75% full, and erase shifts later chain
// members back (no tombstones).
//
// The slot order depends on insertion history, so the index offers no
// iteration: callers that need an order keep one themselves (DESIGN.md §4b).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "g2g/proto/message.hpp"

namespace g2g::proto {

class HashIndex {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// The id of `h`, or kNone.
  [[nodiscard]] std::uint32_t find(const MessageHash& h) const {
    if (slots_.empty()) return kNone;
    const std::uint32_t tag = tag_of(h);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = tag & mask;; i = (i + 1) & mask) {
      const Slot s = slots_[i];
      if (s.id == kNone) return kNone;
      if (s.tag == tag && keys_[s.id] == h) return s.id;
    }
  }
  [[nodiscard]] bool contains(const MessageHash& h) const { return find(h) != kNone; }
  /// The id of `h`, inserting it under a recycled or fresh id when absent;
  /// `second` is true iff it was inserted.
  std::pair<std::uint32_t, bool> insert(const MessageHash& h);
  /// Remove the key that holds `id`; a later insert may reuse the id.
  void erase(std::uint32_t id);

  [[nodiscard]] const MessageHash& key(std::uint32_t id) const { return keys_[id]; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t id = kNone;  ///< kNone: empty
  };
  static_assert(sizeof(Slot) == 8);

  [[nodiscard]] static std::uint32_t tag_of(const MessageHash& h) {
    return static_cast<std::uint32_t>(h[0]) | static_cast<std::uint32_t>(h[1]) << 8 |
           static_cast<std::uint32_t>(h[2]) << 16 | static_cast<std::uint32_t>(h[3]) << 24;
  }
  /// Double the table (first call: 8 slots) and re-place every slot by tag.
  void grow();

  std::vector<Slot> slots_;  ///< power-of-two size, or empty
  std::vector<MessageHash> keys_;  ///< by id
  std::vector<std::uint32_t> free_ids_;
  std::size_t size_ = 0;
};

}  // namespace g2g::proto
