#include "g2g/proto/message_table.hpp"

#include <algorithm>

namespace g2g::proto {

MessageRef MessageTable::intern(const SealedMessage& m, MessageId id) {
  Bytes wire = encode_exact(m);
  const MessageHash h = crypto::sha256(wire);
  const MessageRef known = index_.find(h);
  if (known != kNoMessage) return known;
  return insert(h, id, std::move(wire), m);
}

MessageRef MessageTable::admit(BytesView wire, const MessageHash& claimed) {
  const MessageRef r = index_.find(claimed);
  if (r != kNoMessage && std::ranges::equal(entry(r).wire, wire)) return r;
  const MessageHash h = crypto::sha256(wire);
  const MessageRef known = index_.find(h);
  if (known != kNoMessage) return known;
  return insert(h, MessageId::invalid(), Bytes(wire.begin(), wire.end()),
                SealedMessage::decode(wire));
}

MessageRef MessageTable::insert(const MessageHash& h, MessageId id, Bytes wire,
                                SealedMessage body) {
  const MessageRef r = index_.insert(h).first;
  if ((r >> kChunkBits) == chunks_.size()) chunks_.push_back(std::make_unique<Entry[]>(kChunk));
  Entry& e = chunks_[r >> kChunkBits][r & (kChunk - 1)];
  e.hash = h;
  e.id = id;
  e.wire = std::move(wire);
  e.body = std::move(body);
  return r;
}

}  // namespace g2g::proto
