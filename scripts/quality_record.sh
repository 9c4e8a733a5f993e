#!/usr/bin/env bash
# The pipeline quality record: the deterministic results of untraced
# pipebench runs on seeds 0-9 of every workload, committed as
# PIPELINE_QUALITY.txt at the repository root, so that a change that
# moves a pipeline result shows as a difference.
#
# Usage: scripts/quality_record.sh [--write]
#
# Builds pipebench from the working tree and runs one untraced pass per
# workload and seed. Without arguments it diffs the results against the
# record and exits 1 on any difference or on a run that is not correct;
# with --write it rewrites the record. Per workload and seed the record
# holds the attempted and failed job counts, the `sums` line and the
# primal_integral and gap metrics at full precision; each line starts
# with the workload and the seed. The other three quality metrics
# (area_ratio, snu_ratio, packets_ratio) are quotients of the `sums`
# line's totals, so the record determines all five.
#
# Run it from anywhere; it works on the tree it lives in. Outputs stay in
# $QUALITY_RECORD_DIR (default ${TMPDIR:-/tmp}/quality_record). It takes
# about 6-8 minutes on two cores.
set -euo pipefail

case "$*" in
"") write=0 ;;
--write) write=1 ;;
*)
    echo "usage: $0 [--write]" >&2
    exit 2
    ;;
esac
cd "$(dirname "$0")/.."
. scripts/pipebench_lines.sh
work=${QUALITY_RECORD_DIR:-${TMPDIR:-/tmp}/quality_record}
mkdir -p "$work"
export CARGO_TERM_QUIET=true
cargo build --release --offline --manifest-path pipebench/Cargo.toml

new=$work/PIPELINE_QUALITY.txt
cat >"$new" <<'EOF'
# Pipeline quality record, written by `scripts/quality_record.sh --write`
# and checked by `scripts/quality_record.sh`; CI checks the seed-0 `sums`
# lines. Per workload and seed, from one untraced pipebench pass: the
# attempted and failed jobs, the `sums` line, primal_integral and gap.
EOF
incorrect=0
for workload in area reroute pgo_full; do
    for seed in 0 1 2 3 4 5 6 7 8 9; do
        out=$work/$workload.$seed.out
        cargo run --release --offline --manifest-path pipebench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds 35 --trace 0 >"$out" 2>&1 || true
        if ! counts=$(run_counts "$out"); then
            echo "quality_record: $workload seed $seed is not a correct run (see $out)"
            incorrect=1
            continue
        fi
        {
            echo "$counts"
            result_lines "$out" sums
            grep -E '^metric +(primal_integral|gap) ' "$out" | awk '{ print $2, $3 }'
        } | sed "s/^/$workload $seed /" >>"$new"
        echo "quality_record: $workload seed $seed done"
    done
done

if [ "$incorrect" -ne 0 ]; then
    echo "quality_record: FAILED (outputs in $work)"
    exit 1
fi
if [ "$write" -eq 1 ]; then
    cp "$new" PIPELINE_QUALITY.txt
    echo "quality_record: wrote PIPELINE_QUALITY.txt"
elif diff -u PIPELINE_QUALITY.txt "$new"; then
    echo "quality_record: every result matches PIPELINE_QUALITY.txt"
else
    echo "quality_record: DIFFERS from PIPELINE_QUALITY.txt (outputs in $work)"
    exit 1
fi
