#include "g2g/proto/declaration_memo.hpp"

#include <bit>
#include <span>

namespace g2g::proto {

namespace {

BytesView signed_payload(const QualityDeclaration& decl, Arena& arena) {
  const std::span<std::uint8_t> out = arena.alloc(decl.signed_payload_size());
  SpanWriter w(out);
  decl.signed_payload_into(w);
  w.expect_full();
  return {out.data(), out.size()};
}

}  // namespace

const DeclarationMemo::Slot* DeclarationMemo::match(Role role,
                                                    const QualityDeclaration& decl) const {
  if (decl.dst.value() >= slots_.size()) return nullptr;
  const Slot& slot = slots_[decl.dst.value()];
  // The signed payload is the domain string and these fields, each encoded
  // at a fixed width, so equal fields are equal payload bytes. f is compared
  // by its bits, as it is encoded.
  const bool same = slot.role == role && slot.at == decl.at && slot.declarer == decl.declarer &&
                    slot.value_bits == std::bit_cast<std::uint64_t>(decl.value) &&
                    slot.frame == decl.frame;
  return same ? &slot : nullptr;
}

void DeclarationMemo::store(Role role, const QualityDeclaration& decl) {
  if (decl.dst.value() >= slots_.size()) return;
  slots_[decl.dst.value()] = Slot{role, decl.declarer, std::bit_cast<std::uint64_t>(decl.value),
                                  decl.frame, decl.at, decl.signature};
}

bool DeclarationMemo::sign(const crypto::NodeIdentity& identity, QualityDeclaration& decl,
                           Arena& arena) {
  if (const Slot* slot = match(Role::Signed, decl)) {
    decl.signature = slot->signature;
    return true;
  }
  decl.signature = identity.sign(signed_payload(decl, arena));
  store(Role::Signed, decl);
  return false;
}

DeclarationMemo::Verdict DeclarationMemo::verify(const Roster& roster,
                                                 const QualityDeclaration& decl, Arena& arena) {
  const Slot* slot = match(Role::Verified, decl);
  if (slot != nullptr && slot->signature == decl.signature) return Verdict::Recalled;
  if (!roster.verify(decl.declarer, signed_payload(decl, arena), decl.signature.view())) {
    return Verdict::Invalid;
  }
  store(Role::Verified, decl);
  return Verdict::Verified;
}

}  // namespace g2g::proto
