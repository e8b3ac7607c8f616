#!/usr/bin/env bash
# Pre-merge gate: tier-1 tests, the e2e benchmark's own tests, simcheck
# static analysis, the chaos soaks, ruff and mypy (when installed), the
# e2e workloads' full-scale golden digests, and the perf guard, which
# gates exact work counts per microbench. Run from anywhere; the script
# cds to the repo root.
set -u

cd "$(dirname "$0")/.."

export PYTHONPATH="src:tools${PYTHONPATH:+:$PYTHONPATH}"
failures=0

step() {
    local label=$1
    shift
    echo
    echo "==> $label"
    if "$@"; then
        echo "ok: $label"
    else
        echo "FAILED: $label ($*)"
        failures=$((failures + 1))
    fi
}

# --durations names the slowest tests in the gate log, so a change that
# brings back eager per-cluster allocation (every test builds clusters)
# shows up there before it shows up as a slow suite
step "tier-1 test suite" python -m pytest -x -q --durations=10

# the end-to-end benchmark's own suite (~35 s): it asserts that repeat
# and traced runs reproduce the check-prefix digests and counts, so an
# engine change that lets host state (profiling, timing) leak into the
# event schedule fails here; a deterministic shift of the schedule is
# caught by the tier-1 pinned Fig. 6 read and the full-scale goldens
step "e2e benchmark tests" python -m pytest benchmarks/e2e -q

step "simcheck (SIM001-SIM012, strict pragmas)" \
    python -m simcheck src tests --strict-pragmas

# the analyzer must satisfy its own rules
step "simcheck self-check (tools/simcheck)" \
    python -m simcheck tools/simcheck --strict-pragmas

# sanitizers ON for the chaos soak: a schedule that trips an engine or
# packet invariant must fail the gate, not silently mis-simulate. The
# full 25-seed kill tier runs here (about 12 s on a 2-vCPU VM): failures
# such as a lost line blamed on a readmitted node only show past seed 5
step "chaos soak (25 seeds)" env REPRO_SANITIZE=1 python benchmarks/chaos_soak.py

# partition tier: seeded split/heal/flap schedules plus the fenced
# stale-write and symmetric-split demos — every cut must heal with no
# leftover declarations, isolations, or cross-epoch lease mismatches
step "partition soak" env REPRO_SANITIZE=1 python benchmarks/chaos_soak.py --partitions

if command -v ruff >/dev/null 2>&1; then
    step "ruff lint" ruff check src tools tests
else
    echo
    echo "==> ruff lint"
    echo "skipped: ruff not installed (config lives in pyproject.toml)"
fi

if command -v mypy >/dev/null 2>&1; then
    step "mypy (repro.sim, repro.mem)" mypy
else
    echo
    echo "==> mypy"
    echo "skipped: mypy not installed (config lives in pyproject.toml)"
fi

# the perf guard gates exact work counts, which sanitizers leave alone,
# but its columnar floor (windowed scan >= 10x its per-element loop) is
# a same-window wall-clock ratio, so sanitizers stay off for this step
unset REPRO_SANITIZE

# full-scale bit-identity: each workload's check prefix (--seconds 0
# runs nothing past it) must reproduce its golden.json digest on seeds
# 0 and 1 with every output correct (~40 s); the e2e tests above only
# run at a reduced scale
e2e_goldens() {
    local workload seed out rc=0
    for workload in rand_read server_stress minidb_mix swap_btree; do
        for seed in 0 1; do
            if out=$(python3 benchmarks/e2e/run.py --workload "$workload" \
                    --seed "$seed" --seconds 0) \
                && grep -q "(golden: match)" <<<"$out" \
                && tail -n 1 <<<"$out" | grep -q '"correct": true'; then
                echo "$workload seed $seed: golden match, correct"
            else
                echo "$workload seed $seed: digest off golden or a failed op"
                rc=1
            fi
        done
    done
    return $rc
}
step "e2e full-scale goldens (seeds 0 and 1)" e2e_goldens

step "perf guard (exact work counts)" python benchmarks/perf_guard.py

echo
if [ "$failures" -ne 0 ]; then
    echo "check.sh: $failures gate(s) failed"
    exit 1
fi
echo "check.sh: all gates green"
