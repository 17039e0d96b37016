// Deliberately owning-buffer policy handshake: relay_attempt runs once per
// handshake attempt, so both constructions below must trip
// no-owning-buffer-hot-path except the justified one.
#include <vector>

namespace g2g::proto {

using Bytes = std::vector<unsigned char>;
struct Writer {};

inline unsigned relay_attempt() {
  const auto payload = Bytes(49);  // owning temporary for a signed payload
  Writer w;                        // owning writer
  (void)w;
  // g2g-lint: allow(no-owning-buffer-hot-path) -- cold: once per run
  Bytes justified;
  return static_cast<unsigned>(payload.size() + justified.size());
}

}  // namespace g2g::proto
