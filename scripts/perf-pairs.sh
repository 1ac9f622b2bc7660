#!/usr/bin/env bash
# Alternating pairs of `perf bench` runs between two revisions.
#
#   scripts/perf-pairs.sh <rev-a> <rev-b> <workload> [pairs=10] [seconds=10] [seed0=100]
#
# Builds the benchmark package (crates/bench/src/bin/perf) of each revision
# in a throwaway `git worktree` under $TMPDIR, then runs `perf bench
# --workload W --trace 0` once per side per pair. Both sides of pair i use
# seed seed0+i; side a goes first in even pairs, side b in odd ones. Prints
# every pair's wall_ms_per_sim_ms, cpu_ms_per_sim_ms and peak_rss_mb, then
# each side's median and quartiles of every end-to-end metric and how many
# pairs each side won on wall. Exits 1 if any run reports failed > 0.
#
# Timings mean something only on an otherwise idle machine; do not run it
# while anything else builds or benchmarks.
set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '4p' "$0" | sed 's/^# *//' >&2
    exit 2
fi
rev_a=$1 rev_b=$2 workload=$3 pairs=${4:-10} seconds=${5:-10} seed0=${6:-100}

repo=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/perf-pairs.XXXXXX")
cleanup() {
    for side in a b; do
        [ -d "$tmp/$side" ] && git -C "$repo" worktree remove --force "$tmp/$side"
    done
    rm -rf "$tmp"
}
trap cleanup EXIT

# Check out and build one side; the binary lands in $tmp/target-<side>.
build() {
    local side=$1 rev=$2
    git -C "$repo" worktree add --quiet --detach "$tmp/$side" "$rev"
    echo "building $side = $rev ($(git -C "$tmp/$side" rev-parse --short HEAD))" >&2
    CARGO_TARGET_DIR="$tmp/target-$side" cargo build --release --quiet \
        --manifest-path "$tmp/$side/crates/bench/src/bin/perf/Cargo.toml"
}
build a "$rev_a"
build b "$rev_b"

# Reads "<side> <pair> <JSON line>" rows from the file $2. `pair` prints
# the last pair, `summary` every side's quartiles and exits 1 on a failure.
summarise() {
    python3 - "$@" "$rev_a" "$rev_b" "$workload" <<'EOF'
import json, statistics, sys
mode, path, rev_a, rev_b, workload = sys.argv[1:]
runs, failed = {"a": {}, "b": {}}, 0
for line in open(path):
    side, pair, doc = line.split(" ", 2)
    doc = json.loads(doc)
    failed += doc["failed"]
    runs[side][int(pair)] = {m: v["value"] for m, v in doc.get("metrics", {}).items()}
nan = float("nan")
if mode == "pair":
    pair = max(runs["a"])
    a, b = runs["a"][pair], runs["b"][pair]
    w, c, r = "wall_ms_per_sim_ms", "cpu_ms_per_sim_ms", "peak_rss_mb"
    print(f"pair {pair:>2}: wall a {a.get(w, nan):9.3f} b {b.get(w, nan):9.3f}"
          f"   cpu a {a.get(c, nan):9.3f} b {b.get(c, nan):9.3f}"
          f"   rss a {a.get(r, nan):7.1f} b {b.get(r, nan):7.1f}")
    sys.exit(0)
print(f"\n{workload}: a = {rev_a}, b = {rev_b}, {len(runs['a'])} pairs")
for metric in sorted({m for side in runs.values() for r in side.values() for m in r}):
    for side in "ab":
        xs = sorted(r.get(metric, nan) for r in runs[side].values())
        q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
        print(f"  {metric:<18} {side}: median {q2:9.4g}  q1 {q1:9.4g}  q3 {q3:9.4g}  iqr {q3 - q1:9.4g}")
wins_b = sum(runs["b"][p].get("wall_ms_per_sim_ms", nan) < runs["a"][p].get("wall_ms_per_sim_ms", nan)
             for p in runs["a"])
print(f"  lower wall: b in {wins_b} pairs, a in {len(runs['a']) - wins_b}")
print(f"  failed runs: {failed}")
sys.exit(1 if failed else 0)
EOF
}

# One run of one side, appended to $tmp/runs. A run that prints no JSON
# line counts as failed.
run() {
    local side=$1 pair=$2 line
    if ! line=$("$tmp/target-$side/release/perf" bench --workload "$workload" \
        --seed $((seed0 + pair)) --seconds "$seconds" --trace 0 | tail -n 1); then
        line='{"failed": 1}'
    fi
    echo "$side $pair $line" >>"$tmp/runs"
}
for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then run a "$i"; run b "$i"; else run b "$i"; run a "$i"; fi
    summarise pair "$tmp/runs"
done
summarise summary "$tmp/runs"
