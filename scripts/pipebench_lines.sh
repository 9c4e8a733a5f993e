# Helpers for reading pipebench output, sourced by tick_identity.sh,
# quality_record.sh and CI's pipeline-benchmark step.

# result_lines <pipebench output> <kinds>: the output's result lines of
# the given kinds (an extended regex over the first word, such as
# 'job|sums'), without the wall, sim and peak fields, which vary from
# run to run. What is left is deterministic per seed.
result_lines() {
    grep -E "^($2)" "$1" |
        sed -E 's/(wall|sim) +[0-9.]+ s//g; s/peak +[0-9.]+ MiB//' || true
}

# run_counts <pipebench output>: "attempted N failed M" from the output's
# last line, the JSON result, if it reports a correct run; otherwise
# nothing, with status 1.
run_counts() {
    tail -n 1 "$1" |
        sed -nE 's/^\{"correct": true, "attempted": ([0-9]+), "failed": ([0-9]+),.*/attempted \1 failed \2/p' |
        grep .
}

# good_run <pipebench output>: status 0 only on a correct run with no
# failed job that reports `metric ilp.lp_fallbacks 0` (traced runs report
# the metric; an untraced output fails).
good_run() {
    run_counts "$1" | grep -qx 'attempted [0-9]* failed 0' &&
        grep -Eq '^metric +ilp\.lp_fallbacks +0 ' "$1"
}
