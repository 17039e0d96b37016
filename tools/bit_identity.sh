#!/usr/bin/env bash
# Bit-identity gate for protocol refactors. The relay-core contract is that
# restructuring never changes protocol behaviour: every paper bench's --quick
# output (fig3, fig4, fig5, fig7, fig8, Table I) must be byte-identical before
# and after, with the crypto fast path on (G2G_FASTPATH=1) and off (=0) — the
# fast path is itself bit-exact, so all runs must match the base revision.
# The paper benches all run the symmetric suite, so one g2gsim run on the real
# Schnorr suite pins the public-key path's protocol output too (~0.1 s with
# the fast path on, ~10 s off, in a Release build on a 4-core x86-64 VM).
#
#   tools/bit_identity.sh [base-ref]   # default: merge-base with origin/main
#
# Exits 0 with a notice when no base revision exists to compare against
# (fresh clone, first commit, base predates the benches).
set -euo pipefail
cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

benches=(fig3_droppers_epidemic fig4_detection_g2g_epidemic fig5_deviations_delegation
         fig7_detection_g2g_delegation fig8_cost_tradeoff table1_delegation_detection)
schnorr_run=(--protocol g2g-epidemic --schnorr --deviation dropper --deviants 10
             --interarrival 40 --seed 1)

base="${1:-}"
if [[ -z "$base" ]]; then
  if git rev-parse -q --verify origin/main >/dev/null 2>&1; then
    base=$(git merge-base HEAD origin/main)
  else
    base=$(git rev-parse -q --verify 'HEAD~1^{commit}' 2>/dev/null || true)
  fi
fi
if [[ -z "$base" ]] || ! git rev-parse -q --verify "$base^{commit}" >/dev/null 2>&1; then
  echo "bit-identity: no base revision to compare against (ref '${1:-auto}'); skipping"
  exit 0
fi
base=$(git rev-parse "$base^{commit}")
head=$(git rev-parse HEAD)
if [[ "$base" == "$head" ]]; then
  echo "bit-identity: base == HEAD ($head); nothing to compare, skipping"
  exit 0
fi
echo "bit-identity: comparing HEAD ($head) against base ($base)"

tmp=$(mktemp -d)
cleanup() {
  git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
  rm -rf "$tmp"
}
trap cleanup EXIT

# build_and_run <src-dir> <build-dir> <out-dir>
build_and_run() {
  local src=$1 build=$2 out=$3
  cmake -B "$build" -S "$src" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$build" -j "$jobs" --target "${benches[@]}" g2gsim >/dev/null
  mkdir -p "$out"
  local b fp
  for b in "${benches[@]}"; do
    for fp in 1 0; do
      G2G_FASTPATH=$fp "$build/bench/$b" --quick >"$out/$b.fp$fp.txt"
    done
  done
  for fp in 1 0; do
    G2G_FASTPATH=$fp "$build/examples/g2gsim" "${schnorr_run[@]}" >"$out/g2gsim-schnorr.fp$fp.txt"
  done
}

echo "== HEAD build + runs =="
build_and_run . build-bitid "$tmp/out-head"

echo "== base build + runs =="
git worktree add --detach "$tmp/base" "$base" >/dev/null
if ! build_and_run "$tmp/base" "$tmp/build-base" "$tmp/out-base"; then
  echo "bit-identity: base revision $base does not build the benches; skipping"
  exit 0
fi

fail=0
for f in "$tmp/out-head"/*; do
  name=$(basename "$f")
  if ! diff -u "$tmp/out-base/$name" "$f"; then
    echo "bit-identity: MISMATCH in $name"
    fail=1
  fi
done
if [[ $fail -ne 0 ]]; then
  echo "bit-identity: FAILED — protocol output changed relative to $base"
  exit 1
fi
echo "bit-identity: ok — ${#benches[@]} benches + g2gsim --schnorr x 2 fast-path modes identical"
