// MessageTable: every message of one run, encoded and hashed once.
//
// Give2Get names a message by H(m), the SHA-256 of its canonical encoding.
// The table keeps one immutable entry per distinct encoding: H(m), the
// MessageId (when the network generated it), the wire bytes and the decoded
// body. Every layer that handles a message — relay holds, the vanilla
// buffers, the network's delivery hooks — holds a dense MessageRef instead
// of a copy, and never re-hashes it.
//
// Bytes that cross a session boundary enter through admit(): they map to an
// existing entry only when they equal that entry's bytes, so the H(m) a
// receiver files a message under is always the hash of what arrived.
//
// Entries are never erased and never move; the table lives and dies with its
// network (DESIGN.md §4b, "Message table").
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "g2g/proto/hash_index.hpp"
#include "g2g/proto/message.hpp"

namespace g2g::proto {

/// Dense reference to a MessageTable entry: 0, 1, 2, ... in interning order.
using MessageRef = std::uint32_t;
inline constexpr MessageRef kNoMessage = HashIndex::kNone;

class MessageTable {
 public:
  /// Encode `m` once, hash the encoding once, and file it under `id`. Bytes
  /// already in the table keep their entry (and its first id).
  MessageRef intern(const SealedMessage& m, MessageId id);
  /// The entry for bytes that arrived claiming to be `claimed`: the claimed
  /// entry when its bytes equal `wire` (its hash was taken over those same
  /// bytes), otherwise the entry for SHA-256(wire), created without a
  /// MessageId when new. `wire` must be one strictly decodable message.
  MessageRef admit(BytesView wire, const MessageHash& claimed);
  /// The entry for `h`, or kNoMessage.
  [[nodiscard]] MessageRef find(const MessageHash& h) const { return index_.find(h); }

  [[nodiscard]] const MessageHash& hash(MessageRef r) const { return entry(r).hash; }
  /// MessageId::invalid() for bytes the network never generated.
  [[nodiscard]] MessageId id(MessageRef r) const { return entry(r).id; }
  /// The canonical encoding; hash(r) is its SHA-256.
  [[nodiscard]] BytesView wire(MessageRef r) const { return entry(r).wire; }
  [[nodiscard]] const SealedMessage& body(MessageRef r) const { return entry(r).body; }
  [[nodiscard]] std::size_t size() const { return index_.size(); }

 private:
  struct Entry {
    MessageHash hash{};
    MessageId id;
    Bytes wire;
    SealedMessage body;
  };
  /// Entries live in fixed chunks, so a reference survives later inserts.
  static constexpr std::size_t kChunkBits = 6;
  static constexpr std::size_t kChunk = std::size_t{1} << kChunkBits;

  [[nodiscard]] const Entry& entry(MessageRef r) const {
    return chunks_[r >> kChunkBits][r & (kChunk - 1)];
  }
  /// File a new entry under `h` (absent from the index).
  MessageRef insert(const MessageHash& h, MessageId id, Bytes wire, SealedMessage body);

  HashIndex index_;  ///< ids are refs: the table never erases
  std::vector<std::unique_ptr<Entry[]>> chunks_;
};

}  // namespace g2g::proto
