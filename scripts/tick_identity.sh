#!/usr/bin/env bash
# Tick-identity check of the working tree against a parent revision: a
# change to how presolve, the CSC build, the LU or the simplex find their
# answers must not move a single deterministic tick or result.
#
# Usage: scripts/tick_identity.sh <parent-rev>
#
# Steps (each difference is reported; the exit status is 1 if any):
#   1. builds the parent from `git archive <parent-rev>` into its own
#      CARGO_TARGET_DIR under $TICK_IDENTITY_DIR (default
#      ${TMPDIR:-/tmp}/tick_identity);
#   2. diffs the `bench-smoke:` lines of the solver bench smoke gate
#      (CROXMAP_BENCH_SMOKE=1) of both builds, and checks that the
#      working tree's BENCH_solver.json is left byte-identical;
#   3. runs the tick pins on the working tree: `solver_exactness
#      lp_engine_ticks`, `solver_exactness refine_pairwise_is_pinned` (the
#      `area` refinement path), `end_to_end paper_scale` and
#      `factor_props hyper_kernel_tick_charges_are_pinned`;
#   4. runs pipebench `--trace 1 --seed 0` on `area`, `reroute` and
#      `pgo_full` with both builds and diffs the `job` and `sums` lines
#      (wall, sim and peak removed) and every `*_ticks`, `ilp.det_s`,
#      `ilp.ftran_visited` and `sim.fires` metric; the working tree must
#      also report `trace.faithful` 1, `ilp.lp_fallbacks` 0 and a correct
#      run with no failed job.
#
# Run it from anywhere inside the repository. It takes about 15 minutes
# on two cores, most of it in the six traced pipebench passes.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <parent-rev>" >&2
    exit 2
fi
rev=$1
root=$(git rev-parse --show-toplevel)
cd "$root"
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
    echo "tick_identity: unknown revision $rev" >&2
    exit 2
}
work=${TICK_IDENTITY_DIR:-${TMPDIR:-/tmp}/tick_identity}
parent=$work/parent
rm -rf "$parent"
mkdir -p "$parent"
git archive "$rev" | tar -x -C "$parent"
export CARGO_TERM_QUIET=true
failed=0

# fail <what>: records a difference.
fail() {
    echo "tick_identity: DIFFERS: $1"
    failed=1
}

# same <what> <parent file> <change file>: diffs two extracts.
same() {
    if diff -u "$2" "$3" >"$work/$1.diff"; then
        echo "tick_identity: same $1 ($(wc -l <"$3") lines)"
    else
        cat "$work/$1.diff"
        fail "$1"
    fi
}

echo "tick_identity: bench smoke gate"
smoke() { # smoke <tree> <target dir>
    (cd "$1" && CARGO_TARGET_DIR=$2 CROXMAP_BENCH_SMOKE=1 \
        cargo bench -p croxmap-bench --bench solver 2>&1) | grep '^bench-smoke:' || true
}
smoke "$parent" "$work/parent-target" >"$work/smoke.parent"
smoke "$root" "$root/target" >"$work/smoke.change"
same bench-smoke "$work/smoke.parent" "$work/smoke.change"
git diff --quiet -- BENCH_solver.json || fail "BENCH_solver.json was rewritten"

echo "tick_identity: tick pins"
pin() { # pin <cargo test arguments>...
    if cargo test -q --release "$@" >"$work/pin.log" 2>&1; then
        echo "tick_identity: pin passes: $*"
    else
        tail -n 30 "$work/pin.log"
        fail "pin $*"
    fi
}
pin --test solver_exactness lp_engine_ticks
pin --test solver_exactness refine_pairwise_is_pinned
pin --test end_to_end paper_scale
pin -p croxmap-ilp --test factor_props hyper_kernel_tick_charges_are_pinned

echo "tick_identity: pipebench --trace 1 --seed 0"
pipebench() { # pipebench <tree> <target dir> <workload>
    (cd "$1" && CARGO_TARGET_DIR=$2 cargo run --release --offline --quiet \
        --manifest-path pipebench/Cargo.toml -- \
        --workload "$3" --seed 0 --seconds 35 --trace 1)
}
# The deterministic part of a pipebench output.
. "$root/scripts/pipebench_lines.sh"
deterministic() {
    result_lines "$1" 'job|sums'
    grep -E '^metric +([^ ]*_ticks|ilp\.det_s|ilp\.ftran_visited|sim\.fires) ' "$1" || true
}
for wl in area reroute pgo_full; do
    pipebench "$parent" "$work/parent-target" "$wl" >"$work/$wl.parent" 2>&1 ||
        fail "$wl: the parent's pipebench exited with status $?"
    pipebench "$root" "$root/pipebench/target" "$wl" >"$work/$wl.change" 2>&1 ||
        fail "$wl: pipebench exited with status $?"
    deterministic "$work/$wl.parent" >"$work/$wl.parent.det"
    deterministic "$work/$wl.change" >"$work/$wl.change.det"
    same "$wl" "$work/$wl.parent.det" "$work/$wl.change.det"
    out=$work/$wl.change
    grep -Eq '^metric +trace\.faithful +1 ' "$out" || fail "$wl: trace.faithful is not 1"
    good_run "$out" ||
        fail "$wl: the run is not correct, a job failed or ilp.lp_fallbacks is not 0"
done

if [ "$failed" -ne 0 ]; then
    echo "tick_identity: FAILED (outputs in $work)"
    exit 1
fi
echo "tick_identity: tick-identical to $rev"
