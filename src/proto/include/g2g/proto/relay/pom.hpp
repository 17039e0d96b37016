// PomLedger: the accusation layer of the relay core.
//
// PomLedger is the per-node state every protocol shares: the blacklist and
// the log of PoMs the node has verified (or issued) and will gossip onward.
// Gossip itself is NetworkBase::open_session, one learn_pom per PoM that
// crosses.
#pragma once

#include <set>
#include <utility>
#include <vector>

#include "g2g/proto/wire.hpp"

namespace g2g::proto::relay {

/// Per-node accusation state: who is evicted, and the verifiable evidence.
class PomLedger {
 public:
  [[nodiscard]] bool blacklisted(NodeId n) const { return blacklist_.contains(n); }
  [[nodiscard]] const std::vector<ProofOfMisbehavior>& known() const { return poms_; }

  void blacklist(NodeId n) { blacklist_.insert(n); }
  /// Append a verified (or self-issued) PoM; returns the stored copy.
  const ProofOfMisbehavior& record(ProofOfMisbehavior pom) {
    poms_.push_back(std::move(pom));
    return poms_.back();
  }

 private:
  std::set<NodeId> blacklist_;
  std::vector<ProofOfMisbehavior> poms_;
};

}  // namespace g2g::proto::relay
