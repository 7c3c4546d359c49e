#!/usr/bin/env bash
# perfgate.sh — the perfbench A/B gate. Checks out <base-rev> in a git
# worktree, copies this checkout's perfbench/ over it so that both sides
# run the same harness, and runs alternating pairs of
# `perfbench/run.sh --trace 0` on repeat-long and short-durable: both
# sides of a pair run at the pair's seed, the side that runs first
# alternates from pair to pair, and each side builds into its own
# CARGO_TARGET_DIR. Each run is one "parent|change <seed> <json>" line,
# one file per workload, under .bench_build/perfgate/. cmd/rhmd-perfgate
# then judges the files against BENCHMARK.json, prints one Markdown table
# per workload and sets the exit status: 0 pass, 1 regression, 2 usage
# (including a side that does not build, or a base that cannot be run).
#
#   scripts/perfgate.sh <base-rev>      # make perfgate passes HEAD~1
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: scripts/perfgate.sh <base-rev>" >&2
  exit 2
fi

# The gate's constants: about 3.7 minutes on a 2-vCPU VM, 4.3 with cold
# build caches. unique-adversary-fleet, perfbench's one fleet workload,
# is left out: it is an open loop at a fixed 100 submissions/s, so its
# verdicts_per_s reads the offered rate until the fleet saturates, and a
# fleet-only regression shows in its latency alone. Regressions that
# only the fleet's routing or per-shard WAL would show are not gated.
pairs=10
seconds=1
first_seed=1701
workloads=(repeat-long short-durable)

root=$(git rev-parse --show-toplevel)
cd "$root"
rev=$(git rev-parse --verify --quiet "$1^{commit}") || {
  echo "perfgate: $1 is not a commit" >&2
  exit 2
}

work="$root/.bench_build/perfgate"
base="$work/base"
git worktree remove --force "$base" 2>/dev/null || true
rm -rf "$base"
git worktree prune
mkdir -p "$work"
trap 'status=$?; git worktree remove --force "$base" 2>/dev/null || true; exit $status' EXIT INT TERM
git worktree add --quiet --detach "$base" "$rev"
rm -rf "$base/perfbench"
cp -R perfbench "$base/perfbench"

go build -o "$work/rhmd-perfgate" ./cmd/rhmd-perfgate
files=()
for w in "${workloads[@]}"; do
  files+=("$work/perfgate-$w.txt")
  : >"$work/perfgate-$w.txt"
done

# build <side> builds the side's driver before any run. perfbench/run.sh
# builds and then runs; --help makes the run a no-op. A side that does
# not build is a usage error, not a regression: a perfbench/ that needs
# an rhmd API the base lacks cannot be gated against that base.
build() {
  local dir=$root log
  [ "$1" = parent ] && dir=$base
  rm -f "$work/$1/perfbench"
  log=$(cd "$dir" && CARGO_TARGET_DIR="$work/$1" bash perfbench/run.sh --help 2>&1) || true
  if [ ! -x "$work/$1/perfbench" ]; then
    printf '%s\n' "$log" >&2
    echo "perfgate: perfbench does not build on the $1 side" >&2
    exit 2
  fi
}

# spin keeps every CPU busy for a second before a run. Without it, 8 of
# 26 runs on the 2-vCPU calibration VM spent their first second, where
# setup_s is timed, at about half speed, and one A/A gate in 20 failed
# on setup_s; after a spin, 0 of 38 runs did.
spin() {
  local c
  for ((c = 0; c < $(nproc); c++)); do
    timeout 1 bash -c 'while :; do :; done' &
  done
  wait
}

# one <side> <workload> <seed> appends one run's result line. A change
# that cannot finish a run fails the gate; a base that cannot is a usage
# error.
one() {
  local dir=$root line
  [ "$1" = parent ] && dir=$base
  spin
  line=$(cd "$dir" && CARGO_TARGET_DIR="$work/$1" \
    bash perfbench/run.sh --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1) || true
  case $line in
  "{"*) echo "$1 $3 $line" >>"$work/perfgate-$2.txt" ;;
  *)
    echo "perfgate: $1 run of $2 at seed $3 printed no result line" >&2
    [ "$1" = change ] && exit 1
    exit 2
    ;;
  esac
}

build parent
build change

for ((i = 0; i < pairs; i++)); do
  seed=$((first_seed + i))
  order=(parent change)
  if ((i % 2 == 1)); then
    order=(change parent)
  fi
  for w in "${workloads[@]}"; do
    echo "perfgate: pair $((i + 1))/$pairs, $w, seed $seed" >&2
    one "${order[0]}" "$w" "$seed"
    one "${order[1]}" "$w" "$seed"
  done
done

status=0
"$work/rhmd-perfgate" BENCHMARK.json "${files[@]}" || status=$?
exit $status
