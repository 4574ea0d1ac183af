.PHONY: all build check test bench bench-static bench-par bench-crash \
	bench-json bench-fuzz bench-serve bench-sim bench-opt \
	fuzz-smoke serve-smoke sim-smoke opt-smoke trace-demo clean fmt

all: build

build:
	dune build

# Tier-1 gate: everything compiles and the full test suite passes.
check:
	dune build && dune runtest

test: check

bench:
	dune exec bench/main.exe -- table_effectiveness

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

# Same, with machine-readable results at the repo root (CI artifact).
bench-json:
	dune exec bench/main.exe -- table_crash --json BENCH_pr4.json

# Coverage-guided fuzzing vs blind generation at equal exec counts.
bench-fuzz:
	dune exec bench/main.exe -- table_fuzz --seed 42

# Million-op YCSB traffic against the served redis_mini: manual vs
# Hippocrates-repaired flush-free, simulated throughput + latency
# percentiles, with machine-readable results at the repo root.
bench-serve:
	dune exec bench/main.exe -- table_serve --json BENCH_pr6.json

# Bounded in-process serve smoke: fixed seed, two domains, exits
# non-zero if the repaired variant disagrees with manual on any
# verdict, the final count or the store digest.
serve-smoke:
	HIPPO_JOBS=2 dune exec bin/hippocrates_cli.exe -- serve --inproc \
	  --smoke --seed 42 --records 2000 --ops 3000 --workers 4 --jobs 2

# Fault-injecting scenario fleets: scenarios/s per mode with the
# digest-identity cross-check at the benchmark's jobs width vs serial,
# machine-readable results at the repo root (CI artifact).
bench-sim:
	dune exec bench/main.exe -- table_sim --seed 42 --json BENCH_pr8.json

# Deterministic simulation smoke: standard mode on the hand-hardened
# redis (must be clean, 0 exit) and chaos on P-CLHT's buggy manual port
# (must detect, so the exit code is inverted); both fleets run at two
# domains with reproducers saved under sim-smoke/.
sim-smoke:
	HIPPO_JOBS=2 dune exec bin/hippocrates_cli.exe -- sim --app redis \
	  --variant manual --mode standard --smoke --seed 42 \
	  --jobs 2 --out sim-smoke
	! HIPPO_JOBS=2 dune exec bin/hippocrates_cli.exe -- sim --app pclht \
	  --variant manual --mode chaos --smoke --seed 42 \
	  --jobs 2 --out sim-smoke

# Flush/fence optimizer gauntlet: per-rule unit semantics, the
# must-not-remove cases, corpus + both apps (redis and pclht), and the
# do-no-harm checks — static reports identical, P-CLHT crash-sweep
# verdicts identical at jobs 1 and 2. Fails on any verdict drift.
opt-smoke:
	dune exec test/main.exe -- test optimize

# Optimizer savings table over every repaired corpus and app subject:
# static flush/fence sites removed, report identity, perfmodel cost
# deltas, crash-verdict gauntlet; machine-readable results at the repo
# root (CI artifact).
bench-opt:
	dune exec bench/main.exe -- table_opt --json BENCH_pr9.json

# Deterministic 60-second-class fuzz smoke: fixed seed and exec budget,
# exits non-zero on any oracle violation, saves corpus + shrunk
# reproducers under fuzz-smoke/.
fuzz-smoke:
	dune exec bin/hippocrates_cli.exe -- fuzz --smoke \
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
