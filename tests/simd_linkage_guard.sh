#!/usr/bin/env bash
# Linkage guard for the 8-lane kernels: only simd_avx2.cpp.o may hold AVX
# code, and that object must export exactly the pipad::simd::detail::
# entry points listed below. Together these keep a host without AVX2 on
# the SSE2 path: no inline or template copy compiled for AVX2 can be picked
# by the linker for a caller outside the dispatch.
#
#   simd_linkage_guard.sh OBJDUMP LIBRARY
#
# Exits 0 when all hold, 1 with the offending lines when not, and 77
# (skipped) when OBJDUMP is not an executable.
set -euo pipefail

objdump=$1
lib=$2
avx_obj=simd_avx2.cpp.o
# The *_8 entry points tensor/simd_kernels.hpp declares.
entry_points="gemm_rows_8 bias_grad_8 tanh_n_8 logf_n_8 cosf_n_8 agg_slices_8"

if ! command -v "$objdump" >/dev/null 2>&1; then
  echo "simd_linkage_guard: objdump not found; skipped"
  exit 77
fi

# A member's disassembly starts with "NAME.o:     file format ...".
ymm=$("$objdump" -d --no-show-raw-insn "$lib" | awk -v keep="$avx_obj" '
  / file format / { obj = $1; sub(/:$/, "", obj); next }
  /%ymm/ && obj != keep { print obj ": " $0 }')

# objdump -t lines: address, 7 flag characters (1st: l/g/u/!, 2nd: w for
# weak), section, a tab, size and the demangled name. Undefined symbols
# (section *UND*) are references, not definitions.
# Prints each global or weak definition that is not a listed entry point,
# then "missing NAME" for each entry point that is not defined.
exported=$("$objdump" -t -C "$lib" | awk -v keep="$avx_obj" \
    -v entries="$entry_points" '
  BEGIN { split(entries, want, " "); for (e in want) listed[want[e]] = 1 }
  / file format / { obj = $1; sub(/:$/, "", obj); next }
  obj != keep || !/^[0-9a-f]+ / { next }
  {
    flags = substr($0, length($1) + 2, 7)
    split(substr($0, length($1) + 10), rest, "\t")
    section = rest[1]
    name = substr(rest[2], index(rest[2], " ") + 1)
    global = substr(flags, 1, 1) ~ /[gu!]/ || substr(flags, 2, 1) == "w"
    if (section == "*UND*" || !global) next
    fn = name
    if (sub(/^pipad::simd::detail::/, "", fn) && sub(/\(.*/, "", fn) &&
        fn in listed) {
      found[fn] = 1
    } else {
      print name
    }
  }
  END { for (e in listed) if (!(e in found)) print "missing " e }')

status=0
members=$("$objdump" -a "$lib")
if ! grep -q "^$avx_obj:" <<<"$members"; then
  echo "simd_linkage_guard: $avx_obj is not in $lib"
  status=1
fi
if [ -n "$ymm" ]; then
  echo "simd_linkage_guard: ymm registers outside $avx_obj:"
  echo "$ymm" | head -n 20
  status=1
fi
if [ -n "$exported" ]; then
  echo "simd_linkage_guard: $avx_obj defines global or weak symbols besides" \
       "its pipad::simd::detail:: entry points, or misses one of them:"
  echo "$exported"
  status=1
fi
[ "$status" -eq 0 ] && echo "simd_linkage_guard: ok"
exit "$status"
