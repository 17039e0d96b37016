// Give2Get Delegation Forwarding (Sections VI–VII).
//
// Builds on the G2G relay core (relay/handshake.hpp, relay/audit.hpp) and
// adds the delegation policy:
//  * signed forwarding-quality declarations (FQ_RQST/FQ_RESP, Fig. 6) with
//    values computed over the last *completed* timeframe, so that the
//    destination can later cross-check them;
//  * a decoy destination D' whenever the candidate relay *is* the
//    destination, so a taker can never tell whether it is the destination
//    before signing the PoR;
//  * proofs of relay that carry the message quality f_m at handover and the
//    taker's declared quality, enabling the sender's chain check
//    f_AD = f1_m < f_BD = f2_m < f_CD  (catches *cheaters*);
//  * test by the destination: the source embeds the last two signed
//    declarations of candidates that failed to qualify; the destination
//    verifies them against its own symmetric records (catches *liars*).
//
// The handshake middle (steps 8–11) is the relay_attempt() hook; the
// delegation-only bookkeeping (encounter table, chain check, test by the
// destination) rides the RelayNode hooks.
#pragma once

#include <optional>
#include <vector>

#include "g2g/proto/declaration_memo.hpp"
#include "g2g/proto/quality.hpp"
#include "g2g/proto/relay/relay_node.hpp"

namespace g2g::proto {

class G2GDelegationNode final : public relay::RelayNode {
 public:
  G2GDelegationNode(Env& env, crypto::NodeIdentity identity, NodeConfig config,
                    BehaviorConfig behavior);

  static void run_contact(Session& s, G2GDelegationNode& x, G2GDelegationNode& y) {
    run_contact_impl(s, x, y);
  }

  void note_encounter(NodeId peer, TimePoint t) override;

  [[nodiscard]] const EncounterTable& table() const { return table_; }

  /// Step 9: answer an FQ_RQST about destination `dst` for message `h`;
  /// nullopt declines (message already handled). Liars declare value 0.
  /// A declaration identical to one signed at this instant reuses its
  /// signature (DeclarationMemo).
  [[nodiscard]] std::optional<QualityDeclaration> respond_fq(Session& s,
                                                             G2GDelegationNode& giver,
                                                             const MessageHash& h, NodeId dst);

 protected:
  /// Steps 8–11 of Fig. 6: FQ_RQST/FQ_RESP negotiation with the decoy rule,
  /// the quality gate, RELAY with embedded declarations, the delegation PoR.
  std::optional<relay::HandshakeOutcome> relay_attempt(Session& s, relay::RelayNode& taker,
                                                       const MessageHash& h,
                                                       relay::Hold& hold) override;
  double source_fm(MessageRef m) override;
  void on_delivered(Session& s,
                    const std::vector<QualityDeclaration>& attachments) override;
  bool begin_test(relay::PendingTest& t, NodeId& real_dst) override;
  bool screen_pors(const relay::PendingTest& t, const std::vector<ProofOfRelay>& pors,
                   NodeId real_dst, TimePoint now) override;

 private:
  /// Test by the destination: cross-check embedded declarations.
  void check_attachments(Session& s, const std::vector<QualityDeclaration>& attachments);
  /// Sender chain check over a relay's presented PoRs; issues a PoM and
  /// returns false on a detected cheat.
  bool chain_check(const relay::PendingTest& t, const std::vector<ProofOfRelay>& pors,
                   NodeId real_dst, TimePoint now);
  [[nodiscard]] NodeId random_decoy(NodeId not_this) const;
  EncounterTable table_;
  /// Declarations signed as a candidate and verified as a giver, per D′.
  DeclarationMemo fq_memo_;
};

}  // namespace g2g::proto
