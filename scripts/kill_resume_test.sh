#!/usr/bin/env bash
# Kill-and-resume end-to-end check for the crash-safe batch driver.
#
# 1. Runs aplace_batch without a journal to produce a timing-free reference
#    report (--report-out excludes wall times on purpose).
# 2. SIGKILL leg: launches the journaled batch and SIGKILLs it at several
#    delays — at each delay the journal is torn at whatever byte the kill
#    landed on.
# 3. SIGINT leg: launches the journaled batch and SIGINTs it at the same
#    delays. The handler requests the batch cancel; every engine stops at
#    its next poll, the batch drains and must exit by itself within
#    SIGINT_EXIT_BOUND seconds, having journaled the cut-short jobs as
#    interrupted.
# 4. Resumes each journal and byte-compares its report against the
#    reference: completed jobs restore bit-identically, the rest re-run
#    under the same seeds, so any divergence is a bug.
#
# usage: kill_resume_test.sh <path-to-aplace_batch> [workdir]
set -u

BATCH="${1:?usage: kill_resume_test.sh <path-to-aplace_batch> [workdir]}"
WORK="${2:-$(mktemp -d)}"
mkdir -p "$WORK"

ARGS=(--circuits Adder,CC-OTA,Comp1 --flows eplace-a,sa --fast --threads 2)
DELAYS=(0.05 0.15 0.3 0.6)

echo "== reference run =="
"$BATCH" "${ARGS[@]}" --report-out "$WORK/reference.txt" || {
  echo "FAIL: reference run failed"; exit 1;
}

SIGINT_EXIT_BOUND=10  # seconds a SIGINTed batch may take to drain

fail=0

# Resume the journal in $1 and diff its report against the reference.
resume_and_compare() {
  local jdir="$1" what="$2"
  if ! "$BATCH" "${ARGS[@]}" --journal "$jdir/run.jsonl" --resume \
       --report-out "$jdir/resumed.txt"; then
    echo "FAIL: resume after $what exited non-zero"
    fail=1
    return
  fi
  if ! diff -u "$WORK/reference.txt" "$jdir/resumed.txt"; then
    echo "FAIL: resumed report differs from reference ($what)"
    fail=1
  else
    echo "ok: resumed report identical to reference"
  fi
}

for delay in "${DELAYS[@]}"; do
  jdir="$WORK/kill_$delay"
  rm -rf "$jdir"; mkdir -p "$jdir"
  journal="$jdir/run.jsonl"

  "$BATCH" "${ARGS[@]}" --journal "$journal" >/dev/null 2>&1 &
  pid=$!
  sleep "$delay"
  kill -KILL "$pid" 2>/dev/null
  wait "$pid" 2>/dev/null
  lines=$(wc -l < "$journal" 2>/dev/null || echo 0)
  echo "== killed after ${delay}s ($lines journal lines) =="
  resume_and_compare "$jdir" "${delay}s kill"
done

for delay in "${DELAYS[@]}"; do
  jdir="$WORK/int_$delay"
  rm -rf "$jdir"; mkdir -p "$jdir"
  journal="$jdir/run.jsonl"

  "$BATCH" "${ARGS[@]}" --journal "$journal" >/dev/null 2>&1 &
  pid=$!
  sleep "$delay"
  kill -INT "$pid" 2>/dev/null
  # Poll for a clean exit; a batch still running past the bound is a hang.
  start=$(date +%s.%N)
  while kill -0 "$pid" 2>/dev/null; do
    if awk -v s="$start" -v n="$(date +%s.%N)" -v b="$SIGINT_EXIT_BOUND" \
         'BEGIN { exit !(n - s > b) }'; then
      kill -KILL "$pid" 2>/dev/null
      break
    fi
    sleep 0.05
  done
  wait "$pid" 2>/dev/null
  rc=$?
  lines=$(wc -l < "$journal" 2>/dev/null || echo 0)
  interrupted=$(grep -c '"type":"interrupted"' "$journal" 2>/dev/null)
  echo "== SIGINT after ${delay}s: exit $rc ($lines journal lines," \
       "${interrupted:-0} interrupted) =="
  if [ "$rc" -ge 128 ]; then
    echo "FAIL: batch did not exit by itself within ${SIGINT_EXIT_BOUND}s" \
         "of SIGINT (delay ${delay}s)"
    fail=1
    continue
  fi
  resume_and_compare "$jdir" "${delay}s SIGINT"
done

if [ "$fail" -eq 0 ]; then
  echo "PASS: all kill/resume and SIGINT/resume runs bit-identical to the" \
       "reference"
fi
exit "$fail"
