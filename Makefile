.PHONY: all build check test bench bench-static bench-par bench-crash \
	bench-fuzz smoke trace-demo clean fmt

all: build

build:
	dune build

# Tier-1 gate: everything compiles and the full test suite passes.
check:
	dune build && dune runtest

test: check

# The CI bench gauntlet: crash-sweep strategies, the served KV store
# under million-op YCSB (manual vs repaired), the fault-injecting sim
# fleets and the flush/fence optimizer, with machine-readable results in
# BENCH.json (a CI artifact). Exits non-zero if an exact cross-check
# fails: crash verdict identity, sim digest identity across jobs widths,
# manual/repaired agreement, a clean hand-hardened redis, chaos detecting
# P-CLHT's bugs. Wall-clock columns are informational.
bench:
	dune exec bench/main.exe -- table_crash table_serve table_sim table_opt \
	  --seed 42 --json BENCH.json

bench-static:
	dune exec bench/main.exe -- table_static

# Corpus-sweep wall-clock scaling over worker domains (jobs 1/2/4),
# with a cross-check that parallel sweeps reproduce the serial plans.
bench-par:
	dune exec bench/main.exe -- table_par

# Single-pass dedup crash sweep vs per-crash-point replay: n, distinct
# images, recovery runs, wall clock, speedup, verdict identity.
bench-crash:
	dune exec bench/main.exe -- table_crash

# Coverage-guided fuzzing vs blind generation at equal exec counts.
bench-fuzz:
	dune exec bench/main.exe -- table_fuzz --seed 42

# Bounded smokes, each with a fixed seed at two domains:
# - serve: in-process YCSB; fails if the repaired redis disagrees with
#   manual on any verdict, the final count or the store digest;
# - sim: standard mode on the hand-hardened redis must be clean, and
#   chaos on P-CLHT's buggy manual port must detect (so its exit code is
#   inverted); reproducers are saved under sim-smoke/;
# - fuzz: fixed exec budget, fails on any oracle violation; corpus and
#   shrunk reproducers are saved under fuzz-smoke/.
smoke:
	HIPPO_JOBS=2 dune exec bin/hippocrates_cli.exe -- serve --inproc \
	  --smoke --seed 42 --records 2000 --ops 3000 --workers 4 --jobs 2
	HIPPO_JOBS=2 dune exec bin/hippocrates_cli.exe -- sim --app redis \
	  --variant manual --mode standard --smoke --seed 42 \
	  --jobs 2 --out sim-smoke
	! HIPPO_JOBS=2 dune exec bin/hippocrates_cli.exe -- sim --app pclht \
	  --variant manual --mode chaos --smoke --seed 42 \
	  --jobs 2 --out sim-smoke
	HIPPO_JOBS=2 dune exec bin/hippocrates_cli.exe -- fuzz --smoke \
	  --seed 42 --jobs 2 --corpus fuzz-smoke

# One corpus case end to end with engine tracing: JSON-lines events to
# trace-demo.jsonl, per-phase timing breakdown on stderr.
trace-demo:
	dune exec bin/hippocrates_cli.exe -- fix examples/ir/demo.pmir \
	  --entry main --trace-out trace-demo.jsonl -o /dev/null
	@echo "--- trace-demo.jsonl ---"
	@cat trace-demo.jsonl

clean:
	dune clean

fmt:
	dune fmt
