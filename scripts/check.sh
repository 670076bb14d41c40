#!/bin/sh
# check.sh — lint gate run alongside the tier-1 tests (see ROADMAP.md).
#
#   gofmt -l            all Go sources formatted
#   go vet ./...        no vet complaints
#   one session path    no core.NewSession / mcc.Compile in front ends
#   flashram analyze    static analysis suite clean on every BEEBS
#                       benchmark and on the examples/kernels sources,
#                       at both paper levels (O2, Os)
#   flashram bounds     static energy brackets validated against the
#                       simulator (lower <= simulated <= upper) on the
#                       full benchmark matrix, >= 15/20 cells finite
#   flashram -powertrace  harvested-power replay smoke under -race on
#                       two benchmarks, plus a determinism diff: two
#                       identical trace runs must emit identical JSON
#
# Exits non-zero on the first failure.
set -e
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l cmd internal examples bench_test.go)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...

# Sweep and service configuration must live on the Sweep/Server values,
# not in package globals — the old `evaluation.Workers` variable let two
# concurrent sweeps race on each other's worker count, and a daemon
# holding per-process mutable globals could not host two Servers in one
# test binary. Only the read-only figure1Bars table is allowed at
# package level.
globals=$(grep -n '^var ' internal/evaluation/*.go internal/service/*.go \
    | grep -v '_test.go:' | grep -v 'figure1Bars' || true)
if [ -n "$globals" ]; then
    echo "internal/evaluation or internal/service grew package-global state (put it on Sweep, Session or Server instead):" >&2
    echo "$globals" >&2
    exit 1
fi

# The solver stack threads warm state explicitly — lp.State flows
# through ilp.WarmStart, placement.Warm and core.Session's memo. A
# package-global cache there would alias tableaus across concurrent
# sessions and break the byte-identity guarantee (DESIGN.md §6j).
# Sentinel errors (`var Err...`) are the one legitimate package var.
solverGlobals=$(grep -n '^var ' internal/lp/*.go internal/ilp/*.go \
    internal/placement/*.go internal/core/*.go \
    | grep -v '_test.go:' | grep -v ':var Err' || true)
if [ -n "$solverGlobals" ]; then
    echo "solver packages grew package-global state (thread it through lp.State/ilp.WarmStart/placement.Warm instead):" >&2
    echo "$solverGlobals" >&2
    exit 1
fi

# The pipeline promises panic isolation (DESIGN.md §6g): a pathological
# cell forfeits only its own result. A naked panic() in the pipeline
# packages defeats that by design — misuse and broken invariants must
# surface as typed errors (internal/errs, or lp.ErrBadProblem at the
# solver layer) so sweeps degrade instead of dying. Tests may panic
# freely; they run under the testing harness.
panics=$(grep -n 'panic(' internal/core/*.go internal/evaluation/*.go internal/sim/*.go \
    internal/placement/*.go internal/lp/*.go internal/ilp/*.go internal/trace/*.go \
    internal/service/*.go \
    | grep -v '_test.go:' || true)
if [ -n "$panics" ]; then
    echo "pipeline packages call panic() (return a typed internal/errs error instead):" >&2
    echo "$panics" >&2
    exit 1
fi

# The simulator must dispatch through its predecoded tables, never
# through the layout map. InstrAt/byAddr reappearing in internal/sim
# means someone reintroduced a per-instruction map lookup on the hot
# path (see DESIGN.md "Simulator execution engine").
mapuse=$(grep -n 'InstrAt\|byAddr' internal/sim/*.go || true)
if [ -n "$mapuse" ]; then
    echo "internal/sim uses the layout instruction map (predecode instead):" >&2
    echo "$mapuse" >&2
    exit 1
fi

# The fused engine's whole win is that a superblock retires with zero
# map traffic: symbol/memory/block-name resolution happens once at
# SetImage time (predecode.go) and lands in the uop records and the
# dense counter arrays (DESIGN.md §6k). Any of these identifiers in
# superblock.go means a per-instruction (or per-superblock-dispatch)
# map lookup crept back into the fused path — hoist it to compile time.
fusedmaps=$(grep -n 'Symbols\[\|MemoryOf(\|BlockCounts\[' internal/sim/superblock.go || true)
if [ -n "$fusedmaps" ]; then
    echo "internal/sim/superblock.go does map lookups (resolve at SetImage/predecode time instead):" >&2
    echo "$fusedmaps" >&2
    exit 1
fi

# The commands and examples reach the pipeline stages only through
# core.Session (DESIGN.md §6e), which owns every knob's default and the
# stage order. A command or example importing a stage package directly
# grows its own copy of the chain — `flashram analyze` and
# examples/tradeoffspace once had one — and its defaults drift from the
# image Optimize simulates.
stages=$(grep -rn '"repro/internal/\(cfg\|freq\|model\|transform\|layout\)"' cmd/ examples/ || true)
if [ -n "$stages" ]; then
    echo "cmd/ or examples/ imports a pipeline stage package (go through core.Session instead):" >&2
    echo "$stages" >&2
    exit 1
fi

# Every front end gets its sessions from a core.Store through
# evaluation.Sweep (DESIGN.md §6i), so `flashram -json` and the daemon's
# /v1/optimize are one code path. A command or service file compiling
# and wrapping a program itself grows a second session path — flashram
# and the daemon each once had one. (perfbench/ is a separate module
# that replays the pipeline stage by stage; it is not scanned.)
sessions=$(grep -rn --include='*.go' 'core\.NewSession(\|mcc\.Compile(' cmd internal \
    | grep -v '_test.go:' \
    | grep -v '^internal/\(core\|evaluation\|mcc\)/' || true)
if [ -n "$sessions" ]; then
    echo "a front end builds its own session (use evaluation.Sweep.Session instead):" >&2
    echo "$sessions" >&2
    exit 1
fi

go build -o /tmp/flashram.check ./cmd/flashram
trap 'rm -f /tmp/flashram.check' EXIT

for level in O2 Os; do
    /tmp/flashram.check analyze -all -O "$level"
    for src in examples/kernels/*.c; do
        /tmp/flashram.check analyze -src "$src" -O "$level"
    done
done

# The static energy-bounds analysis must bracket the simulator on every
# benchmark at both paper levels (lower <= simulated <= upper, checked
# for baseline and optimized images), with finite brackets on at least
# 15 of the 20 cells (DESIGN.md §6h). Default levels are O2 and Os, so
# one invocation covers the full matrix.
/tmp/flashram.check bounds -all -minfinite 15 > /dev/null

# Harvested-power fault injection (DESIGN.md §6l). Built with -race: the
# intermittent replay shares the session's memoized stages, and a data
# race there corrupts silently before it fails loudly. Two benchmarks,
# one checkpoint-aware, cover both solve paths.
go build -race -o /tmp/flashram.race ./cmd/flashram
trap 'rm -f /tmp/flashram.check /tmp/flashram.race /tmp/powertrace.a.json /tmp/powertrace.b.json' EXIT
/tmp/flashram.race -bench crc32 -powertrace steady > /dev/null
/tmp/flashram.race -bench 2dfir -powertrace bursty -ckptaware > /dev/null

# Determinism: an identical trace + configuration must reproduce the
# document byte-for-byte (the replay contract the service's ETags and
# the sharded sweeps rely on).
/tmp/flashram.check -bench 2dfir -powertrace adversarial -ckptaware -json > /tmp/powertrace.a.json
/tmp/flashram.check -bench 2dfir -powertrace adversarial -ckptaware -json > /tmp/powertrace.b.json
if ! cmp -s /tmp/powertrace.a.json /tmp/powertrace.b.json; then
    echo "powertrace determinism: two identical trace runs emitted different JSON" >&2
    diff /tmp/powertrace.a.json /tmp/powertrace.b.json >&2 || true
    exit 1
fi

echo "check.sh: all clean"
