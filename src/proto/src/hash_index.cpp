#include "g2g/proto/hash_index.hpp"

namespace g2g::proto {

std::pair<std::uint32_t, bool> HashIndex::insert(const MessageHash& h) {
  if ((size_ + 1) * 4 > slots_.size() * 3) grow();
  const std::uint32_t tag = tag_of(h);
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = tag & mask;
  for (; slots_[i].id != kNone; i = (i + 1) & mask) {
    if (slots_[i].tag == tag && keys_[slots_[i].id] == h) return {slots_[i].id, false};
  }
  std::uint32_t id = static_cast<std::uint32_t>(keys_.size());
  if (free_ids_.empty()) {
    keys_.push_back(h);
  } else {
    id = free_ids_.back();
    free_ids_.pop_back();
    keys_[id] = h;
  }
  slots_[i] = Slot{tag, id};
  ++size_;
  return {id, true};
}

void HashIndex::erase(std::uint32_t id) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = tag_of(keys_[id]) & mask;
  while (slots_[hole].id != id) hole = (hole + 1) & mask;
  // Backward shift: a later slot of the same run moves into the hole when its
  // home lies cyclically at or before the hole, so every probe from a home
  // slot still reaches its key before an empty slot.
  for (std::size_t j = (hole + 1) & mask; slots_[j].id != kNone; j = (j + 1) & mask) {
    const std::size_t home = slots_[j].tag & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].id = kNone;
  free_ids_.push_back(id);
  --size_;
}

void HashIndex::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 8 : old.size() * 2, Slot{});
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.id == kNone) continue;
    std::size_t i = s.tag & mask;
    while (slots_[i].id != kNone) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

}  // namespace g2g::proto
