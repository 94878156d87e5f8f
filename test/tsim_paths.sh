#!/bin/sh
# tsim runs .k, .s and .img inputs through one runner, so -f selects
# the functional simulator and -m the timing backend whatever the input;
# --profile prints one row per compiler stage plus other, summing to the
# profiled compile's wall time, the prefix stages included.
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

# tsim has just compiled the same program with the same checker setting,
# so the profiled compile must run its prefix (ssa .. sizing) afresh
# rather than reuse it
prof=$("$tsim" "$kernel" -c both --check --profile | sed -n '/^compile profile /,$p')
wall=$(printf '%s\n' "$prof" | sed -n 's/^compile profile .*: \([0-9]*\) us$/\1/p')
sum=$(printf '%s\n' "$prof" | awk 'NR > 1 { s += $2 } END { print s + 0 }')
missing=
for stage in ssa opt_classic unroll regions sizing check other; do
  printf '%s\n' "$prof" | grep -q "^  $stage " || missing="$missing $stage"
done
if [ -z "$wall" ] || [ "$wall" != "$sum" ] || [ -n "$missing" ]; then
  echo "tsim $kernel --profile: stage rows missing ($missing) or not summing to the wall time:"
  printf '%s\n' "$prof"
  exit 1
fi
