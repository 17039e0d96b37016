// AuditEngine: the (Delta1, Delta2] test-by-sender machinery (Fig. 2).
//
// One engine per node owns the pending-test registry and runs both sides of
// the audit: the source's challenge loop (POR_RQST frames, one
// Suite::verify per presented PoR, storage proofs judged at challenge time
// with crypto::heavy_hmac_equal) and the relay's response
// (present PoRs and/or the inputs of its heavy-HMAC storage proof). The two
// former copies of this loop in the epidemic and delegation nodes differed
// only in how PoRs are presented (PresentMode) and in two delegation-only
// screens (the host's begin_test / screen_pors hooks: destination lookup and
// the chain check).
#pragma once

#include <cstdint>
#include <vector>

#include "g2g/proto/relay/state.hpp"

namespace g2g::proto {
class Session;
}

namespace g2g::proto::relay {

class RelayNode;
struct PorRqstFrame;

class AuditEngine {
 public:
  /// How a challenged relay presents its evidence.
  enum class PresentMode : std::uint8_t {
    /// Epidemic: a full PoR set settles it; otherwise a storage proof plus
    /// whatever PoRs exist (shown, not transferred).
    PorsOrStorage,
    /// Delegation: every PoR is always transferred (the sender chain-checks
    /// them), a storage proof covers the shortfall.
    PorsThenStorage,
  };

  AuditEngine(RelayNode& host, PresentMode mode) : host_(host), mode_(mode) {}

  /// Source side: remember that `test.relay` must be challenged when re-met.
  void arm(PendingTest test) { tests_.push_back(std::move(test)); }

  /// Source side: challenge `peer` for every due pending test.
  void run(Session& s, RelayNode& peer);

  /// Relay side: answer a decoded POR_RQST. A storage proof carries the
  /// relay's heavy-HMAC inputs (TestResponse::storage); its byte accounting,
  /// cost counter and trace event happen here, at challenge time.
  [[nodiscard]] TestResponse respond(Session& s, const PorRqstFrame& rq);

  [[nodiscard]] std::vector<PendingTest>& tests() { return tests_; }
  [[nodiscard]] const std::vector<PendingTest>& tests() const { return tests_; }
  [[nodiscard]] std::size_t pending_count() const;

 private:
  /// The storage-proof leg of respond(): the heavy-HMAC inputs and the
  /// STORED_RESP frame accounting.
  void storage_proof(Session& s, const Hold& hold, const PorRqstFrame& rq, TestResponse& resp);

  RelayNode& host_;
  PresentMode mode_;
  std::vector<PendingTest> tests_;
};

}  // namespace g2g::proto::relay
