#!/usr/bin/env sh
# Soak run of the differential property suites under rotated seeds:
# the spanner and exec proptests, the engine-matrix campaign
# (tests/engine_matrix.rs) and the decision-procedure agreement suite
# (tests/random_agreement.rs).
#
# Round r (1-based) runs every suite with PROPTEST_SEED = base + r - 1,
# which the proptest shim XORs into each test's name-derived seed, so
# every round draws fresh cases. The base is PROPTEST_SEED from the
# environment, or the current Unix time when unset. On a failure the
# script prints the failing seed and the command that replays it, and
# exits 1.
#
# Usage: scripts/soak.sh [rounds]          (default: 10 rounds)
#        PROPTEST_SEED=1009 scripts/soak.sh 1
set -eu

rounds="${1:-10}"
case "$rounds" in
  ''|*[!0-9]*|0|00*) echo "rounds must be a positive integer, got '$rounds'" >&2; exit 2 ;;
esac
base="${PROPTEST_SEED:-$(date +%s)}"
case "$base" in
  ''|*[!0-9]*) echo "PROPTEST_SEED must be an unsigned integer, got '$base'" >&2; exit 2 ;;
esac

suites() {
  cargo test -q --release -p splitc-spanner --lib proptests &&
  cargo test -q --release -p splitc-exec --lib proptests &&
  cargo test -q --release -p split_correctness --test engine_matrix --test random_agreement
}

# Build once, outside the seeded rounds, so a compile error is not
# reported as a seed failure.
cargo test -q --release --no-run -p splitc-spanner -p splitc-exec -p split_correctness

r=1
while [ "$r" -le "$rounds" ]; do
  seed=$((base + r - 1))
  echo "soak round $r/$rounds: PROPTEST_SEED=$seed"
  if ! PROPTEST_SEED="$seed" suites; then
    echo "soak FAILED at PROPTEST_SEED=$seed" >&2
    echo "replay: PROPTEST_SEED=$seed scripts/soak.sh 1" >&2
    exit 1
  fi
  r=$((r + 1))
done
echo "soak OK: $rounds round(s) from PROPTEST_SEED=$base"
