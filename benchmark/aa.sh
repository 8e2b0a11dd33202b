#!/usr/bin/env bash
# A/A check: every workload N times as set A and N times as set B,
# interleaved, same code. Exits non-zero when the two sets' medians (or
# either set's quartile spread) disagree by more than a metric's bound.
# Usage: benchmark/aa.sh [N]      (default 3; run from the repository root)
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- --aa "${1:-3}"
