// Fixture: an allow() pragma with no justification after `--`.
namespace g2g::core {

// g2g-lint: allow(no-rand)
int unjustified_pragma() { return 4; }

}  // namespace g2g::core
