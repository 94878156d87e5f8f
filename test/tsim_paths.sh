#!/bin/sh
# tsim runs .k, .s and .img inputs through one runner, so -f selects
# the functional simulator and -m the timing backend whatever the input.
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
