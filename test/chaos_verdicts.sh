#!/bin/sh
# Print the verdict lines of every CI-gated chaos run, each under a
# header naming its flags. CI diffs the output against
# test/chaos_verdicts.expected, so a verdict (rounds, txns, replacements)
# can only move through a reviewed edit to that file:
#
#   dune build bin/rcc_chaos.exe
#   sh test/chaos_verdicts.sh > verdicts.out
#   diff -u test/chaos_verdicts.expected verdicts.out
#
# The first argument overrides the rcc_chaos binary. Exits 1 if any run
# exits non-zero.

chaos=${1:-_build/default/bin/rcc_chaos.exe}
status=0
for args in \
  "--smoke --quick" \
  "--smoke" \
  "--smoke --quick --exec-mode parallel" \
  "--smoke --exec-mode parallel" \
  "--protocol multiz --scenario-seed 7000022" \
  "--protocol multiz --scenario-seed 7000022 --journal --quick" \
  "--protocol multip --scenario-seed 7000021" \
  "--transfer" \
  "--transfer --exec-mode parallel" \
  "--transfer --journal" \
  "--restart" \
  "--restart --exec-mode parallel"; do
  echo "## rcc_chaos $args"
  # shellcheck disable=SC2086 # word-splitting the flag list is intended
  out=$("$chaos" $args) || status=1
  printf '%s\n' "$out" | grep -E '^(PASS|FAIL)'
done
exit $status
