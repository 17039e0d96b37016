// HandshakeEngine: the 5-step relay phase (Fig. 1 / Fig. 6), frame-driven.
//
// One engine per node owns the hold table and the handled set, and runs both
// sides of the handshake against the peer node's engine. Every step crosses
// the session as an explicitly encoded frame (relay/frames.hpp) that the
// receiving side decodes — the struct-by-reference shortcut of the former
// monolithic nodes is gone, so a real transport backend only has to carry
// the frame bytes. The policy-specific middle of the handshake (epidemic
// accept vs. delegation quality negotiation) is delegated to the host's
// relay_attempt() hook; the shared tail (PoR bookkeeping, key reveal,
// completion, test arming, forwarding-duty payload drop) lives here.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "g2g/proto/hash_index.hpp"
#include "g2g/proto/relay/state.hpp"

namespace g2g::proto {
class Session;
}

namespace g2g::proto::relay {

class RelayNode;

class HandshakeEngine {
 public:
  explicit HandshakeEngine(RelayNode& host) : host_(host) {}

  /// Source-side message admission (the host supplies the initial f_m).
  void generate(MessageRef m, double fm);

  /// Delta2 housekeeping: expired holds go (a source's hold stays while a
  /// test of its message is pending), resolved or out-of-window tests go.
  void purge(TimePoint now);

  /// Giver side: offer every eligible hold to `taker`, one handshake each.
  void giver_pass(Session& s, RelayNode& taker);

  /// Taker side of steps 2/4 for the epidemic handshake: decode the RELAY_RQST
  /// frame, answer with RELAY_OK or a decline, and countersign a PoR. Returns
  /// the encoded PoR — a view into the session arena, valid for the current
  /// handshake attempt — or nullopt on decline (message already handled).
  [[nodiscard]] std::optional<BytesView> answer_relay_rqst(Session& s, RelayNode& giver,
                                                           BytesView rqst_frame);

  /// Taker side of step 4 alone: sign `por`, account its transfer, and return
  /// its canonical encoding (the giver decodes and verifies; the bytes live in
  /// the session arena for the current attempt). The delegation handshake
  /// builds the PoR giver-side (it knows D', f_m, f_BD') and only needs the
  /// countersignature.
  [[nodiscard]] BytesView countersign(Session& s, RelayNode& giver, ProofOfRelay por);

  /// Taker side after the key reveal (step 5): decode the data and key
  /// frames, match the message bytes to their table entry
  /// (MessageTable::admit), then store / deliver / drop per behaviour. A
  /// frame whose H(m) this node already handled is dropped unread.
  void complete_relay(Session& s, RelayNode& giver, BytesView data_frame,
                      BytesView key_frame, double new_fm, TimePoint expires);

  /// Forwarding duty fulfilled (or Delta2): the payload may go, PoRs stay.
  void drop_payload(Hold& hold);

  [[nodiscard]] bool has_handled(const MessageHash& h) const { return handled_.contains(h); }
  /// The hold for `h`, or nullptr. Holds never move: the pointer stays valid
  /// until purge() erases the hold.
  [[nodiscard]] Hold* find_hold(const MessageHash& h);
  [[nodiscard]] const Hold* find_hold(const MessageHash& h) const;
  [[nodiscard]] std::size_t hold_count() const { return hold_ids_.size(); }

 private:
  /// A hold plus its membership of the offer list.
  struct Slot {
    Hold hold;
    bool offered = false;
  };
  static constexpr std::size_t kChunk = 16;

  [[nodiscard]] Slot& slot(std::uint32_t id) { return chunks_[id / kChunk][id % kChunk]; }
  [[nodiscard]] const Slot& slot(std::uint32_t id) const {
    return chunks_[id / kChunk][id % kChunk];
  }
  /// Admit a hold for `h` unless one exists (the first hold stays). Its
  /// `received` must not precede any earlier hold's: the sim clock stamps it.
  void insert_hold(const MessageHash& h, Hold hold);
  /// Delta2: drop the payload, tell the host, and free the slot.
  void erase_hold(std::uint32_t id);
  /// Where `h` sits, or would sit, in offers_.
  [[nodiscard]] std::vector<std::uint32_t>::iterator offer_position(const MessageHash& h);
  /// True while a test of one of this source's relays of `id` is live.
  [[nodiscard]] bool testing(std::uint32_t id, TimePoint now) const;

  RelayNode& host_;
  // The relay state's layout and invariants: DESIGN.md §4b, "Relay state".
  /// Every H(m) this node ever handled: probed, never iterated, never shrinks.
  HashIndex handled_;
  /// H(m) -> hold id; the id also names the hold's slot.
  HashIndex hold_ids_;
  /// Hold slots by id, in fixed-size chunks so a slot never moves.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  /// Ids of holds that may still be offered, in ascending byte order of H(m)
  /// (the order giver_pass offers in). Holds that stopped being offerable
  /// leave lazily, during the next pass that reaches them.
  std::vector<std::uint32_t> offers_;
  /// Unexpired hold ids in receipt order, which is Delta2 order.
  std::deque<std::uint32_t> by_receipt_;
  /// Expired source holds kept while a test of their relays is live.
  std::vector<std::uint32_t> retained_;
};

}  // namespace g2g::proto::relay
