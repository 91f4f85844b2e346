#!/usr/bin/env bash
# The row gates over a BENCH_pipeline.json. CI's bench-smoke job runs them
# twice: on the committed file before the smoke run overwrites it (a
# full-run regeneration that drops a row fails here), and on the file the
# smoke run just wrote (the bench binary must still emit every row). The
# file says which it is (`"smoke": false` is a committed full run), and only
# a full run's timing ratio is held to a threshold.
set -euo pipefail

file=${1:?usage: ci/bench_gates.sh <BENCH_pipeline.json>}
if grep -Fq '"smoke": true' "$file"; then kind=smoke; else kind=committed; fi

fail() {
  echo "::error::$kind $(basename "$file") $1"
  exit 1
}
require() { grep -F "$1" "$file" || fail "$2"; }
forbid() { ! grep -E "$1" "$file" || fail "$2"; }

# The sharded parallel_scaling row (the fleet's measured intra-run speedup at
# 1/2/4 workers). Every scaling figure is measured: a `projected_` or `_basis`
# key means a modelled number was published as a measured one. The fleet has
# no thread count of its own any more: a `shards` table or its
# `sharded_speedup_4s` coming back means the shard-thread knob is back.
require '"fleet_speedup_4w"' "lost the sharded parallel_scaling row"
require '"shard_lanes"' "lost the sharded parallel_scaling row"
forbid '"(shards|sharded_speedup_4s)"' "carries the retired shard-thread row"
forbid 'projected_|_basis' "carries a modelled (projected_/_basis) figure"

# The prediction plane is measured as it runs (whole cycle, the same cycle
# for a predictor aligned with a warm shared feature window, FCBF half, OLS
# half). `alloc_ns_per_bin` was the retired allocating replica's row: its
# return would mean a second prediction path is back.
require '"fcbf_ns_per_bin"' "lost the prediction plane's FCBF row"
require '"shared_ns_per_bin"' "lost the prediction plane's shared-window row"
forbid '"alloc_ns_per_bin"' "carries the retired alloc_ns_per_bin row"
# An aligned predictor reads the window's factorisation of the features it
# selected and pays only its own projection: its cycle may not cost more than
# 0.45 of a private one's (0.566 when it shared the moments alone).
require '"shared_vs_private"' "lost the prediction plane's shared_vs_private row"
if [ "$kind" = committed ]; then
  awk -F': *' '/"shared_vs_private"/ { if ($2 + 0 > 0.45) exit 1 }' "$file" ||
    fail "shared_vs_private is above 0.45"
fi

# The pipeline bench times only code the monitor runs. The ten-pass
# extractor, the clone shedders and the AoS replay are test oracles now
# (`tests/oracle/`); their rows were retired to CHANGES.md (PR 17) and a key
# of theirs coming back means a second implementation is back in the
# production crates.
forbid '"[a-z_]*(tenpass_|_clone_ns|aos_replay_)' \
  "carries a retired tenpass_/_clone_ns/aos_replay_ row"

# The engine explains itself: the stage breakdown comes from the engines' own
# lap clocks (`Engine::stage_stats`). The inside/outside split it replaced
# (`ExecStats`: `sequential_ns` / `dispatch_ns`) must not come back beside it.
require '"stage_breakdown"' "lost the stage breakdown"
forbid '"(sequential_ns|dispatch_ns)"|ExecStats' "carries a retired ExecStats row"

# A fleet is the solo bin with a lane-sharded execute stage: its breakdown is
# the same seven shares plus its bin in solo bins. The front-end rows of the
# retired coordinator-and-lane-monitors shape (`front_end_share`, a
# `coordinate` or `split` stage) coming back means the second loop is back.
require '"bin_ns_vs_solo"' "lost the fleet's bin_ns_vs_solo"
forbid '"(front_end_share|coordinate|split)"' "carries a retired fleet front-end row"
# What four lanes cost on one thread is an intra-run ratio, held on a full
# run: 1.15 solo bins when the lane split landed; folding the lanes' query
# state at interval close (`Query::absorb`, in `admit`, on the one bin in ten
# that closes an interval) may not take it past 1.18.
if [ "$kind" = committed ]; then
  awk -F': *' '/"bin_ns_vs_solo"/ { if ($2 + 0 > 1.18) exit 1 }' "$file" ||
    fail "the 4-lane fleet's bin_ns_vs_solo is above 1.18"
fi

# The benchmark's unshed 200-tenant shape, by the same clock. Execute is the
# largest stage: 0.59 of the bin while top-k, autofocus and application
# looked their tables up per packet and every flows tenant hashed every flow
# itself; with one lookup per flow and one memoised flows key per flow per
# batch it may not take more than 0.54. Predict was 0.42 while every tenant
# decomposed its own design matrix and 0.30 with one factorisation per
# selected feature sequence; its nanoseconds did not move when execute
# shrank beneath it (the engine's stage clock, parent and change alternating
# on this shape), so its ceiling is re-based from 0.36 to 0.42 on a smaller
# bin, not loosened.
require '"tenants_200"' "lost the 200-tenant stage breakdown"
if [ "$kind" = committed ]; then
  tenants_share() {
    awk -F': *' -v stage="\"$1\"" \
      '/"tenants_200"/ { t = 1 } t && $1 ~ stage { print $2 + 0; exit }' "$file"
  }
  awk -v share="$(tenants_share execute)" 'BEGIN { exit !(share != "" && share <= 0.54) }' ||
    fail "the 200-tenant bin's measured execute share is above 0.54"
  awk -v share="$(tenants_share predict)" 'BEGIN { exit !(share != "" && share <= 0.42) }' ||
    fail "the 200-tenant bin's measured predict share is above 0.42"
fi

# Sampling costs what it keeps: a packet sample is one generator draw and one
# integer compare per packet, written at the keep list's tail, so on the same
# fresh 10k-packet views it may not cost more than a flow sample (one H3
# verdict per flow and a verdict lookup per packet; 1.1–1.6 before the
# branch-free sampler, 0.33–0.36 after) — and the solo bin's shed stage, five such
# passes, may not take more than 0.17 of the bin (0.22 before). The small-view
# re-extraction row is measured the way a monitor's worker runs it: eight
# extractors taking turns on one shared scratch.
require '"packet_vs_flow_view"' "lost the packet-vs-flow sampler row"
require '"shared_scratch_ns_per_call"' "lost the shared-scratch re-extraction column"
if [ "$kind" = committed ]; then
  awk -F': *' '/"packet_vs_flow_view"/ { if ($2 + 0 > 1.0) exit 1 }' "$file" ||
    fail "packet_vs_flow_view is above 1.0"
  awk -F': *' '/"solo"/ { solo = 1 } solo && /"shed"/ { if ($2 + 0 > 0.17) exit 1; exit 0 }' "$file" ||
    fail "the solo bin's measured shed share is above 0.17"
fi

# The flow index's worst case is priced, not guessed: on a batch whose
# 5-tuples are all distinct the index saves nothing, and building it may cost
# at most 15 % more than the bare per-packet slot-row build it replaced (an
# intra-run ratio, both sides alternating on fresh copies).
require '"index_overhead_all_distinct"' "lost the flow index's all-distinct row"
if [ "$kind" = committed ]; then
  awk -F': *' '/"index_overhead_all_distinct"/ { if ($2 + 0 > 1.15) exit 1 }' "$file" ||
    fail "index_overhead_all_distinct is above 1.15"
fi

# The steady-state shed→extract loop must be allocation-free: the bench's
# counting allocator writes the per-bin count into the JSON (and asserts it
# internally); this fails if the published number ever drifts from zero.
require '"alloc_per_bin"' "lost the allocation guard's row"
grep -Fq '"alloc_per_bin": 0' "$file" ||
  fail "steady-state hot path allocated (alloc_per_bin != 0)"
