#!/usr/bin/env sh
# Smoke-test the CLI error boundary: every failure class must exit with
# its documented code and print a one-line "sjos: <class>: <message>" on
# stderr -- never a backtrace.
#
# Usage:  scripts/cli_errors_smoke.sh [path/to/sjos.exe]
# With no argument the script runs the binary through `dune exec`
# (prefix with `opam exec --` in CI if needed via $SJOS).

set -u

SJOS="${1:-${SJOS:-dune exec bin/sjos.exe --}}"
XML="${TMPDIR:-/tmp}/sjos_smoke_pers.xml"
fails=0

say() { printf '%s\n' "$*"; }

expect_exit() {
  want=$1
  label=$2
  shift 2
  out=$("$@" 2>&1 >/dev/null)
  got=$?
  if [ "$got" -ne "$want" ]; then
    say "FAIL $label: exit $got, wanted $want"
    say "     stderr: $out"
    fails=$((fails + 1))
  elif [ "$want" -ne 0 ] && ! printf '%s' "$out" | grep -q '^sjos: '; then
    say "FAIL $label: exit $want but stderr is not a one-line sjos message:"
    say "     $out"
    fails=$((fails + 1))
  else
    say "ok   $label (exit $got)"
  fi
}

# shellcheck disable=SC2086  # $SJOS is intentionally word-split
run_sjos() { $SJOS "$@"; }

$SJOS gen pers -n 2000 -o "$XML" 2>/dev/null || {
  say "FAIL could not generate $XML"
  exit 1
}

# success path
expect_exit 0 "healthy query" \
  run_sjos query "manager(//employee(/name))" "$XML"

# parse_error = 2: bad pattern syntax, then malformed XML
expect_exit 2 "pattern parse error" \
  run_sjos query "manager(||employee)" "$XML"
BAD="${TMPDIR:-/tmp}/sjos_smoke_bad.xml"
printf '<a><b></a>' > "$BAD"
expect_exit 2 "malformed xml" \
  run_sjos query "manager(//name)" "$BAD"

# invalid_request = 3: per-query knob out of range
expect_exit 3 "grid out of range" \
  run_sjos query "manager(//name)" "$XML" --grid 0

# budget_exhausted = 5: tuple ceiling fires during execution
expect_exit 5 "tuple budget exhausted" \
  run_sjos query "manager(//employee(/name))" "$XML" --max-tuples 1

# degradation is NOT an error: an over-budget exact search falls back to
# DPAP-EB, exits 0 and says so on stderr
note=$(run_sjos query "manager(//employee(/name))" "$XML" \
  --no-cache --max-expanded 1 2>&1 >/dev/null)
rc=$?
if [ "$rc" -eq 0 ] && printf '%s' "$note" | grep -q 'DPAP-EB'; then
  say "ok   budgeted search degrades with a note (exit 0)"
else
  say "FAIL degradation: exit $rc, stderr: $note"
  fails=$((fails + 1))
fi

# the complete class-to-exit-code table, 2..9, via the selftest boundary:
# every class must map to its documented code even when no organic
# failing query exists for it in this script
code=2
for cls in parse_error invalid_request invalid_plan budget_exhausted \
  corrupt_cache_entry corrupt_input internal overloaded; do
  expect_exit "$code" "selftest-error $cls" run_sjos selftest-error "$cls"
  code=$((code + 1))
done
expect_exit 3 "selftest-error rejects unknown class" \
  run_sjos selftest-error no_such_class

# ---- perf-history gate ----------------------------------------------
# `sjos perf-gate` must be able to fail: two hand-made datapoints with
# equal work pass, and a third that doubles comparisons must not.
GATE_DIR="${TMPDIR:-/tmp}/sjos_smoke_gate_$$"
mkdir -p "$GATE_DIR"
datapoint() { # datapoint TIMESTAMP COMPARISONS
  cat >"$GATE_DIR/demo-$1.json" <<EOF
{"schema": 1, "bench": "demo", "timestamp": $1, "meta": {},
 "entries": [{"id": "q", "allocated_bytes": 1000, "seconds": 0,
   "work": {"comparisons": $2, "tuples_emitted": 10, "items_skipped": 0,
            "candidates_scanned": 10, "stack_ops": 10, "io_items": 0,
            "sorted_items": 0, "expansions": 0, "plans_considered": 0,
            "page_touches": 0}}]}
EOF
}
gate_case() { # gate_case pass|fail LABEL
  run_sjos perf-gate demo --dir "$GATE_DIR" >/dev/null 2>&1
  got=$?
  if { [ "$1" = pass ] && [ "$got" -eq 0 ]; } ||
    { [ "$1" = fail ] && [ "$got" -ne 0 ]; }; then
    say "ok   $2 (exit $got)"
  else
    say "FAIL $2: exit $got"
    fails=$((fails + 1))
  fi
}
datapoint 1 100
datapoint 2 100
gate_case pass "perf-gate passes an equal pair"
datapoint 3 200
gate_case fail "perf-gate catches a 2x comparisons regression"
rm -rf "$GATE_DIR"

rm -f "$BAD"
if [ "$fails" -eq 0 ]; then
  say "cli error smoke: all checks passed"
else
  say "cli error smoke: $fails check(s) FAILED"
  exit 1
fi
