#!/usr/bin/env bash
# Runs flexwattsd's end-to-end benchmark (perfbench) on a base revision and
# on this checkout in interleaved pairs, then summarizes the runs:
#
#   bash scripts/perfbench_ab.sh BASE WORKLOAD PAIRS SECONDS [SEED]
#
# `make perfbench-ab BASE=<rev> WORKLOAD=<w> PAIRS=10 SECONDS=20` runs it.
# BASE's benchmark is built from a git worktree of this repository at
# .bench_build/ab-base, removed once built; this checkout's from its own
# perfbench/. Both builds use perfbench/run.sh's offline environment, so
# nothing is fetched. Pair i runs seed SEED+i on both sides, the base first
# in odd pairs and the change first in even ones. Each run appends one
# line to .bench_build/ab/WORKLOAD.jsonl, {"side", "pair", "seed",
# "result"}, where result is perfbench's last line (null if it printed
# none), and its standard error to WORKLOAD.log beside it. Then
# `benchjson -pairs` prints each metric's medians and quartiles, the pairs
# the change won and whether the gain rule holds.
set -euo pipefail
if [ $# -lt 4 ]; then
	echo "usage: $0 BASE WORKLOAD PAIRS SECONDS [SEED]" >&2
	exit 2
fi
base=$1 workload=$2 pairs=$3 seconds=$4 seed=${5:-1000}
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/ab"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"

rev=$(git -C "$root" rev-parse --verify "$base^{commit}")
wt="$out/ab-base"
cleanup() { git -C "$root" worktree remove --force "$wt" 2>/dev/null || true; }
cleanup
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$wt" "$rev"
(cd "$wt/perfbench" && go build -o "$out/ab/perfbench-base" .)
cleanup
(cd "$root/perfbench" && go build -o "$out/ab/perfbench-change" .)

log="$out/ab/$workload.jsonl"
: >"$log"
: >"$out/ab/$workload.log"
bench() { # side pair seed
	local result
	result=$("$out/ab/perfbench-$1" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 \
		2>>"$out/ab/$workload.log" | tail -n 1) || true
	case $result in
	"{"*) ;;
	*) result=null ;;
	esac
	printf '{"side":"%s","pair":%d,"seed":%d,"result":%s}\n' "$1" "$2" "$3" "$result" >>"$log"
	echo "pair $2 $1 (seed $3): $result" >&2
}
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		bench base "$i" $((seed + i))
		bench change "$i" $((seed + i))
	else
		bench change "$i" $((seed + i))
		bench base "$i" $((seed + i))
	fi
done
echo "$workload: $pairs pairs of ${seconds}s, base $rev; records in $log"
cd "$root" && go run ./cmd/benchjson -pairs <"$log"
