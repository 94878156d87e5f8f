#!/bin/sh
# tsim runs .k, .s and .img inputs through one runner, so -f selects
# the functional simulator and -m the timing backend whatever the input;
# --profile prints one row per compiler stage plus other, summing to the
# profiled compile's wall time.
#   sh tsim_paths.sh TSIM KERNEL.k PROGRAM.s
set -eu
tsim=$1
kernel=$2
asm=$3

out=$("$tsim" "$kernel" -c both -f)
if ! printf '%s\n' "$out" | grep -qx 'cycles 0'; then
  echo "tsim $kernel -f ran a timing backend:"
  printf '%s\n' "$out"
  exit 1
fi

grid=$("$tsim" "$asm" --args 3,4 | grep '^cycles ')
inorder=$("$tsim" "$asm" --args 3,4 -m inorder_edge | grep '^cycles ')
if [ "$grid" = "$inorder" ]; then
  echo "tsim $asm ignored -m inorder_edge: $grid on both machines"
  exit 1
fi

prof=$("$tsim" "$kernel" -c both --check --profile | sed -n '/^compile profile /,$p')
wall=$(printf '%s\n' "$prof" | sed -n 's/^compile profile .*: \([0-9]*\) us$/\1/p')
sum=$(printf '%s\n' "$prof" | awk 'NR > 1 { s += $2 } END { print s + 0 }')
if [ -z "$wall" ] || [ "$wall" != "$sum" ] \
   || ! printf '%s\n' "$prof" | grep -q '^  opt_classic ' \
   || ! printf '%s\n' "$prof" | grep -q '^  check ' \
   || ! printf '%s\n' "$prof" | grep -q '^  other '; then
  echo "tsim $kernel --profile: stage rows missing or not summing to the wall time:"
  printf '%s\n' "$prof"
  exit 1
fi
