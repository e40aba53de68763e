#!/bin/sh
# Crash-under-load gate: instance 1's primary crashes while 10K open-loop
# clients offer 300K txn/s to a 16-replica MultiP cluster. The run must
# commit, keep a valid ledger, and ship at most 175 KB of contracts per
# replica per primary replacement (the paper's per-contract size, so
# 2.8 MB per replacement at n = 16). Recovery traffic that re-ships
# batches the requester already holds breaks the byte bound, and enough
# of it starves the execute thread until nothing commits.
#
# It also bounds recovery time: the primary is dead from the start, so
# no client request completes before the replacement, and the first
# completion must come within 10 ms of the 250 ms replica timeout. The
# liveness monitor escalates at the stall's exact deadline (the last
# frontier move + the timeout + 1 ns), so what remains is the blame
# round, the takeover and one round of ordering and execution (about
# 4 ms). A monitor that only notices the stall on its 12.5 ms tick, or a
# takeover that sits out a fixed grace period (timeout / 8 = 31.25 ms),
# does not fit.
#
# The run is deterministic, so beyond the bounds every field printed
# below except the host-time wall= must match test/crash_load_gate.expected
# byte for byte: a number can only move through a reviewed edit to that
# file, as with test/chaos_verdicts.expected.
#
#   dune build bin/rcc_run.exe
#   sh test/crash_load_gate.sh
#
# The first argument overrides the rcc_run binary. Takes about 5 s.

run=${1:-_build/default/bin/rcc_run.exe}
expected=$(dirname "$0")/crash_load_gate.expected
n=16
timeout=0.25
margin=0.01
out=$("$run" -p multip -n $n --clients 10000 --arrival-rate 300000 \
  --fault crash:1 --replica-timeout $timeout --duration 3) || exit 1
fields=$(printf '%s\n' "$out" | grep -E '^(committed|contracts|first_completion)=')
printf '%s\n' "$fields"
same=1
if ! printf '%s\n' "$fields" | sed 's/ wall=[^ ]*//' | diff -u "$expected" -; then
  echo "FAIL: printed fields differ from $expected"
  same=0
fi
printf '%s\n' "$out" | awk -v n=$n -v timeout=$timeout -v margin=$margin -v same=$same '
  { for (i = 1; i <= NF; i++) { split($i, kv, "="); v[kv[1]] = kv[2] } }
  END {
    committed = v["committed"] + 0
    contracts = v["contracts"]; sub(/B$/, "", contracts); contracts += 0
    repl = v["replacements"] + 0
    bound = 175000 * n * repl
    ok = same
    if (committed <= 0) { print "FAIL: committed nothing"; ok = 0 }
    if (v["ledger_valid"] != "true") { print "FAIL: ledger not valid"; ok = 0 }
    if (contracts > bound) {
      printf "FAIL: %.0f B of contracts exceeds %.0f B (175 KB x %d x %d replacements)\n",
        contracts, bound, n, repl
      ok = 0
    }
    first = v["first_completion"]; sub(/s$/, "", first)
    if (first == "" || first == "none" || first + 0 > timeout + margin) {
      printf "FAIL: first completion at %s, later than the %.2f s timeout + %.3f s\n",
        v["first_completion"], timeout, margin
      ok = 0
    }
    if (ok) printf "PASS: %d txns committed, %.0f B of contracts (bound %.0f B), first completion %.4f s\n",
      committed, contracts, bound, first
    exit !ok
  }'
