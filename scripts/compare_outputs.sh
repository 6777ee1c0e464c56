#!/usr/bin/env bash
# Byte-for-byte output comparison of two paccbench binaries.
#
#   scripts/compare_outputs.sh PARENT_BIN CHANGE_BIN
#
# Runs one battery of paccbench invocations with each binary and compares
# every output — stdout, stderr and every file a run writes (Chrome traces,
# campaign JSON) — with cmp. Prints one line per case and exits 1 if any
# output differs, 2 on bad usage. A change that must not move a simulated
# result (a refactor, a speed-up) should leave every case identical.
#
# The battery: Fig-7 Alltoall and Fig-8 Bcast under every scheme with
# --energy-breakdown; Fig 2(a) at 4 and 8 ranks per node; a traced 1 MiB
# proposed Alltoall; a rack layer; one- and two-level fat trees and minimal
# and adaptive dragonflies, each collapsed and 1:1; two link-flapping
# faulted runs with their traces; and the all-op sweep at --jobs 1 and 4.
set -u

if [ $# -ne 2 ] || [ ! -x "$1" ] || [ ! -x "$2" ]; then
  echo "usage: $0 PARENT_BIN CHANGE_BIN (two executable paccbench binaries)" >&2
  exit 2
fi
parent=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
change=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")
work=$(mktemp -d "${TMPDIR:-/tmp}/compare_outputs.XXXXXX")
trap 'rm -rf "$work"' EXIT

# name|arguments — a run writes any file into its own working directory.
cases=(
  "fig7_none|--op alltoall --scheme none --energy-breakdown"
  "fig7_dvfs|--op alltoall --scheme dvfs --energy-breakdown"
  "fig7_proposed|--op alltoall --scheme proposed --energy-breakdown"
  "fig8_none|--op bcast --scheme none --energy-breakdown"
  "fig8_dvfs|--op bcast --scheme dvfs --energy-breakdown"
  "fig8_proposed|--op bcast --scheme proposed --energy-breakdown"
  "fig2a_ppn4|--op alltoall --ranks 32 --ppn 4"
  "fig2a_ppn8|--op alltoall --ranks 32 --ppn 8"
  "trace_alltoall_1m|--op alltoall --scheme proposed --min 1M --max 1M --trace trace.json"
  "racks4|--op alltoall --scheme proposed --racks 4"
  "fattree1_collapsed|--op alltoall --scheme proposed --ranks 256 --fabric 4:2 --collapse 0"
  "fattree1_full|--op alltoall --scheme proposed --ranks 256 --fabric 4:2 --collapse 1"
  "fattree2_collapsed|--op alltoall --scheme proposed --ranks 256 --fabric 2:2,2:2 --collapse 0"
  "fattree2_full|--op alltoall --scheme proposed --ranks 256 --fabric 2:2,2:2 --collapse 1"
  "dragonfly_collapsed|--op alltoall --scheme proposed --ranks 256 --fabric dragonfly:4,2,4 --collapse 0"
  "dragonfly_full|--op alltoall --scheme proposed --ranks 256 --fabric dragonfly:4,2,4 --collapse 1"
  "dragonfly_adaptive_collapsed|--op alltoall --scheme proposed --ranks 256 --fabric dragonfly:4,2,4:adaptive --collapse 0"
  "dragonfly_adaptive_full|--op alltoall --scheme proposed --ranks 256 --fabric dragonfly:4,2,4:adaptive --collapse 1"
  "faults_alltoall|--op alltoall --scheme proposed --faults seed=17,drop=0.02,flap=50,stragglers=1,slow=1.5 --trace trace.json"
  "faults_racked|--op alltoall --scheme proposed --racks 3 --min 64K --max 64K --faults seed=5,flap=300,down-us=50 --trace trace.json"
  "sweep_jobs1|--sweep --min 16K --max 64K --jobs 1 --json sweep.json"
  "sweep_jobs4|--sweep --min 16K --max 64K --jobs 4 --json sweep.json"
)

differ=0
for entry in "${cases[@]}"; do
  name=${entry%%|*}
  read -r -a args <<< "${entry#*|}"
  for side in parent change; do
    bin=$parent
    [ "$side" = change ] && bin=$change
    dir="$work/$side/$name"
    mkdir -p "$dir"
    (cd "$dir" && "$bin" "${args[@]}" > stdout.txt 2> stderr.txt
     echo $? > status.txt)
  done
  verdict=identical
  for file in $(cd "$work/parent/$name" && ls; cd "$work/change/$name" && ls); do
    if ! cmp -s "$work/parent/$name/$file" "$work/change/$name/$file"; then
      verdict="DIFFERS ($file)"
    fi
  done
  echo "$name: $verdict"
  [ "$verdict" = identical ] || differ=1
done

if [ "$differ" -ne 0 ]; then
  echo "outputs differ" >&2
  exit 1
fi
echo "all ${#cases[@]} cases identical"
