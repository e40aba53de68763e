#!/bin/sh
# Crash-under-load gate: instance 1's primary crashes while 10K open-loop
# clients offer 300K txn/s to a 16-replica MultiP cluster. The run must
# commit, keep a valid ledger, and ship at most 175 KB of contracts per
# replica per primary replacement (the paper's per-contract size, so
# 2.8 MB per replacement at n = 16). Recovery traffic that re-ships
# batches the requester already holds breaks the byte bound, and enough
# of it starves the execute thread until nothing commits.
#
#   dune build bin/rcc_run.exe
#   sh test/crash_load_gate.sh
#
# The first argument overrides the rcc_run binary. Takes about 5 s.

run=${1:-_build/default/bin/rcc_run.exe}
n=16
out=$("$run" -p multip -n $n --clients 10000 --arrival-rate 300000 \
  --fault crash:1 --replica-timeout 0.25 --duration 3) || exit 1
printf '%s\n' "$out" | grep -E '^(committed|contracts)='
printf '%s\n' "$out" | awk -v n=$n '
  { for (i = 1; i <= NF; i++) { split($i, kv, "="); v[kv[1]] = kv[2] } }
  END {
    committed = v["committed"] + 0
    contracts = v["contracts"]; sub(/B$/, "", contracts); contracts += 0
    repl = v["replacements"] + 0
    bound = 175000 * n * repl
    ok = 1
    if (committed <= 0) { print "FAIL: committed nothing"; ok = 0 }
    if (v["ledger_valid"] != "true") { print "FAIL: ledger not valid"; ok = 0 }
    if (contracts > bound) {
      printf "FAIL: %.0f B of contracts exceeds %.0f B (175 KB x %d x %d replacements)\n",
        contracts, bound, n, repl
      ok = 0
    }
    if (ok) printf "PASS: %d txns committed, %.0f B of contracts (bound %.0f B)\n",
      committed, contracts, bound
    exit !ok
  }'
