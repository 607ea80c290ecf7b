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

# ---- disk storage failure paths -------------------------------------
# A server with --storage disk opens its column file lazily, on the
# first page fault.  Damaging the file between startup and the first
# query therefore surfaces as a structured corrupt_input error on the
# request that faults -- never a crash -- and the server stays up.
#
# These need a long-lived background process, so they use the built
# binary directly (dune exec would put dune between us and the signal).
BIN=./_build/default/bin/sjos.exe
if [ ! -x "$BIN" ]; then
  case "$SJOS" in
  *dune*) : ;; # dune exec above already built it; if not, skip below
  *) BIN=${SJOS% *} ;;
  esac
fi
if [ -x "$BIN" ]; then
  SOCK="${TMPDIR:-/tmp}/sjos_smoke_$$.sock"
  DIR="${TMPDIR:-/tmp}/sjos_smoke_store_$$"

  wait_ready() { # wait_ready PID LABEL -> 0 when serving, 1 on timeout
    tries=0
    while ! "$BIN" client health --socket "$SOCK" >/dev/null 2>&1; do
      tries=$((tries + 1))
      if [ "$tries" -ge 100 ]; then
        say "FAIL $2: server (pid $1) never became ready"
        return 1
      fi
      sleep 0.1
    done
    return 0
  }

  expect_client() { # expect_client CODE CLASS LABEL cmd...
    want=$1
    wantclass=$2
    label=$3
    shift 3
    out=$("$@" 2>/dev/null)
    got=$?
    if [ "$got" -ne "$want" ]; then
      say "FAIL $label: exit $got, wanted $want"
      say "     stdout: $out"
      fails=$((fails + 1))
    elif [ -n "$wantclass" ] &&
      ! printf '%s' "$out" | grep -q "\"class\": \"$wantclass\""; then
      say "FAIL $label: response lacks error class $wantclass:"
      say "     $out"
      fails=$((fails + 1))
    else
      say "ok   $label (exit $got)"
    fi
  }

  serve_disk_case() { # serve_disk_case LABEL DAMAGE-CMD...
    label=$1
    shift
    rm -rf "$DIR" "$SOCK"
    "$BIN" serve "$XML" --socket "$SOCK" --storage disk \
      --store-dir "$DIR" --pool-pages 2 2>/dev/null &
    srv=$!
    if wait_ready "$srv" "$label"; then
      "$@" # damage the column file before the first page fault
      expect_client 7 corrupt_input "$label" \
        "$BIN" client exec --socket "$SOCK" \
        --pattern "manager(//employee(/name))"
      # the fault was isolated to that request: the server still answers
      expect_client 0 "" "$label: server survives the IO fault" \
        "$BIN" client health --socket "$SOCK"
      kill -TERM "$srv" 2>/dev/null
      wait "$srv" 2>/dev/null
      drain_rc=$?
      if [ "$drain_rc" -ne 0 ]; then
        say "FAIL $label: drain exited $drain_rc"
        fails=$((fails + 1))
      fi
    else
      fails=$((fails + 1))
      kill "$srv" 2>/dev/null
      wait "$srv" 2>/dev/null
    fi
    rm -rf "$DIR" "$SOCK"
  }

  serve_disk_case "disk store: missing columns.bin" \
    rm -f "$DIR/columns.bin"
  serve_disk_case "disk store: truncated columns.bin" \
    sh -c ": > '$DIR/columns.bin'"
else
  say "skip disk failure paths: no built binary at $BIN"
fi

rm -f "$BAD"
if [ "$fails" -eq 0 ]; then
  say "cli error smoke: all checks passed"
else
  say "cli error smoke: $fails check(s) FAILED"
  exit 1
fi
