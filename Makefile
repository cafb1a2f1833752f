# Convenience targets; dune is the real build system.

.PHONY: all build test check bench bench-check bench-diff obs-smoke obs-bench par-check par-bench conv-check conv-smoke conv-bench server-check server-smoke server-bench models-check models-smoke models-bench corpus-check corpus-bless repro clean

all: build

build:
	dune build @all

test:
	dune runtest

# The gate CI runs: full build plus every test suite.
check:
	dune build @all
	dune runtest

# cnt-bench's own output checks as a gate: every workload, 1 s timed
# passes (about 45 s).  The last stdout line is the run's JSON summary;
# it must say "correct":true — the ring51 pins (483 Newton iterations,
# 49 266 device evals, <= 1 mV against cntbench/ref/ring51_tran.csv),
# the Table I RMS pins, the ladder Thomas check and the cntd offline =
# daemon digest check all feed it.
bench-check:
	@last=$$(dune exec --root . --display quiet -- ./cntbench/bench.exe --workload all --seconds 1 | tail -n 1); \
	case "$$last" in \
	  *'"correct":true'*) echo "bench-check: every output check passed" ;; \
	  *) echo "bench-check: failed: $$last"; exit 1 ;; \
	esac

# Compare two BENCH_*.json artefacts: every timing leaf (keys ending
# in _s) present in both is checked for relative regressions.
#   make bench-diff OLD=results/BENCH_obs.json NEW=/tmp/BENCH_obs.json
#   make bench-diff OLD=... NEW=... THRESHOLD=15
THRESHOLD ?= 10
bench-diff:
	dune exec bench/compare.exe -- $(OLD) $(NEW) --threshold $(THRESHOLD)

# Quick telemetry-overhead smoke run (2 repeats; prints JSON to stdout).
obs-smoke:
	@dune exec bench/main.exe -- obs-overhead --smoke

# Full telemetry-overhead benchmark; refreshes the committed artefact.
obs-bench:
	dune exec bench/main.exe -- obs-overhead > results/BENCH_obs.json
	@tail -n +2 results/BENCH_obs.json | head -n 4

# Parallel determinism gate: the full test suite must pass with the
# domain pool forced sequential and forced wide (see docs/PARALLEL.md).
par-check:
	CNT_JOBS=1 dune runtest --force
	CNT_JOBS=4 dune runtest --force

# Parallel-scaling benchmark; refreshes the committed artefact.
par-bench:
	dune exec bench/main.exe -- parallel-json > results/BENCH_parallel.json
	@tail -n +2 results/BENCH_parallel.json | head -n 5

# Convergence gate: the fault-injection suite at both pool widths (see
# docs/CONVERGENCE.md).
conv-check:
	CNT_JOBS=1 dune exec test/test_convergence.exe
	CNT_JOBS=4 dune exec test/test_convergence.exe

# Quick ladder-overhead smoke run (2 repeats; prints JSON to stdout).
conv-smoke:
	@dune exec bench/main.exe -- convergence-json --smoke

# Full ladder-overhead benchmark; refreshes the committed artefact.
conv-bench:
	dune exec bench/main.exe -- convergence-json > results/BENCH_convergence.json
	@tail -n +2 results/BENCH_convergence.json | head -n 5

# Daemon/protocol gate: wire round-trips, byte parity offline vs
# --connect, edge cases, graceful drain (see docs/SERVER.md).
server-check:
	dune exec test/test_server.exe

# Quick daemon-throughput smoke run (16 requests; prints JSON to stdout).
server-smoke:
	@dune exec bench/main.exe -- server-json --smoke

# Full daemon-throughput benchmark (cold vs warm caches); refreshes the
# committed artefact.
server-bench:
	dune exec bench/main.exe -- server-json > results/BENCH_server.json
	@tail -n +2 results/BENCH_server.json | head -n 6

# Device-model gate: the full suite with every CNFET forced onto each
# registered backend (see docs/MODELS.md).  Suites that pin bytes for
# deck-declared models neutralise or override the variable; the jobs
# bitwise-invariance suite genuinely runs under the forced backend.
models-check:
	CNT_MODEL=piecewise dune runtest --force
	CNT_MODEL=vs dune runtest --force

# Quick per-backend cost smoke run (1 repeat; prints JSON to stdout).
models-smoke:
	@dune exec bench/main.exe -- models-json --smoke

# Full per-backend benchmark; refreshes the committed artefact.
models-bench:
	dune exec bench/main.exe -- models-json > results/BENCH_models.json
	@tail -n +2 results/BENCH_models.json | head -n 5

# Netlist front-end gate: every test/corpus deck against its pinned
# stdout or located-diagnostic golden, plus the parser property suite
# (see docs/NETLIST.md).
corpus-check:
	dune exec test/test_corpus.exe

# Regenerate the corpus goldens after an intentional front-end change.
corpus-bless:
	CNT_BLESS=1 dune exec test/test_corpus.exe

repro:
	dune exec bin/repro.exe -- all

clean:
	dune clean
