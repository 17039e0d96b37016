// The FQ_RESP declarations one G2G Delegation node signed or verified at the
// current instant, one slot per destination D′.
//
// A declaration ⟨B, D′, f, frame, t⟩_B does not name the message, so within
// one contact a candidate gives the same signed answer about one D′ to every
// FQ_RQST of the giver's pass. The memo signs such a repeat once and
// verifies it once (DESIGN.md §5c, "Declarations signed once per instant"):
//   * sign() reuses the signature of a declaration this node signed with the
//     same signed payload (declarer, D′, the bits of f, frame, t). Both
//     suites sign deterministically, so the reused bytes are the ones a fresh
//     sign would return.
//   * verify() skips the suite only for a declaration that matches one which
//     passed verification in every byte, signature included. Any other
//     signature over a stored payload is verified in full, so a forged one is
//     still rejected.
// A slot holds the last declaration stored for its D′; one made at a later
// instant never matches it. Charging the cost model stays with the caller,
// once per FQ_RESP whether or not the memo answered.
#pragma once

#include <cstdint>
#include <vector>

#include "g2g/crypto/identity.hpp"
#include "g2g/proto/message.hpp"
#include "g2g/proto/wire.hpp"
#include "g2g/util/arena.hpp"

namespace g2g::proto {

class DeclarationMemo {
 public:
  /// What verify() found.
  enum class Verdict : std::uint8_t {
    Invalid,   ///< the signature does not verify under the declarer's key
    Verified,  ///< the suite verified it
    Recalled,  ///< identical to a declaration that verified earlier
  };

  /// One slot per destination id in [0, node_count); a declaration about any
  /// other id is signed or verified without the memo.
  explicit DeclarationMemo(std::size_t node_count) : slots_(node_count) {}

  /// Set decl.signature to `identity`'s signature over decl's signed payload
  /// (built in `arena` when the suite signs). Returns true when the signature
  /// of an identical declaration signed earlier was reused.
  bool sign(const crypto::NodeIdentity& identity, QualityDeclaration& decl, Arena& arena);
  /// Check decl.signature under decl.declarer's roster key.
  [[nodiscard]] Verdict verify(const Roster& roster, const QualityDeclaration& decl,
                               Arena& arena);

 private:
  enum class Role : std::uint8_t { Empty, Signed, Verified };
  struct Slot {
    Role role = Role::Empty;
    NodeId declarer;
    std::uint64_t value_bits = 0;
    std::int64_t frame = 0;
    TimePoint at;
    crypto::Signature signature;
  };
  /// decl's slot when it holds, in `role`, a declaration with decl's signed
  /// payload; nullptr otherwise.
  [[nodiscard]] const Slot* match(Role role, const QualityDeclaration& decl) const;
  void store(Role role, const QualityDeclaration& decl);

  std::vector<Slot> slots_;  // indexed by D′
};

}  // namespace g2g::proto
