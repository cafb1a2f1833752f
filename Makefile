# Convenience targets; dune is the real build system.

.PHONY: all build test check examples-check bench-check conv-check server-check models-check corpus-check corpus-bless repro clean

all: build

build:
	dune build @all

test:
	dune runtest

# The gate CI runs: full build plus every test suite.
check:
	dune build @all
	dune runtest

# Run every example program: each must exit 0.  The build only
# compiles them, so without this one could break at run time unseen.
examples-check:
	dune build @examples/all
	@for exe in _build/default/examples/*.exe; do \
	  echo "examples-check: $$exe"; \
	  "$$exe" > /dev/null || { echo "examples-check: failed: $$exe"; exit 1; }; \
	done

# cnt-bench's own output checks as a gate: every workload, 1 s timed
# passes (about 45 s).  The last stdout line is the run's JSON summary;
# it must say "correct":true — the ring51 pins (483 Newton iterations,
# 49 266 device evals, <= 1 mV against cntbench/ref/ring51_tran.csv),
# the Table I RMS pins, the ladder Thomas check and the cntd offline =
# daemon digest check all feed it.  It must also hold the allocation
# targets, each workload:bound below, on the traced pass's
# gc.minor_words_per_op: ring51_tran and table1_family at or under 1e6
# (the allocation-free device kernels read about 0.27 M and 0.17 M;
# per-device stencil closures read 7.9 M and 7.6 M), and ladder_1000 at
# or under 7.1e5 (the offset lexer, hoisted evaluator, reused instance
# bindings and hash-free CSR build read about 0.57 M; the per-character
# lexer and Printf pattern keys read 2.71 M).
bench-check:
	@last=$$(dune exec --root . --display quiet -- ./cntbench/bench.exe --workload all --seconds 1 | tail -n 1); \
	case "$$last" in \
	  *'"correct":true'*) echo "bench-check: every output check passed" ;; \
	  *) echo "bench-check: failed: $$last"; exit 1 ;; \
	esac; \
	for wb in ring51_tran:1e6 table1_family:1e6 ladder_1000:7.1e5; do \
	  w=$${wb%%:*}; bound=$${wb##*:}; \
	  words=$$(printf '%s\n' "$$last" | sed -n "s/.*\"$$w\.gc\.minor_words_per_op\":{\"value\":\([^,}]*\).*/\1/p"); \
	  if [ -z "$$words" ]; then echo "bench-check: failed: no $$w.gc.minor_words_per_op"; exit 1; fi; \
	  if awk -v w="$$words" -v b="$$bound" 'BEGIN { exit !(w + 0 <= b + 0) }'; then \
	    echo "bench-check: $$w allocates $$words minor words per op (<= $$bound)"; \
	  else \
	    echo "bench-check: failed: $$w allocates $$words minor words per op (> $$bound)"; exit 1; \
	  fi; \
	done

# Convergence gate: the fault-injection suite (see docs/CONVERGENCE.md).
conv-check:
	dune exec test/test_convergence.exe

# Daemon/protocol gate: wire round-trips, byte parity offline vs
# --connect, edge cases, graceful drain (see docs/SERVER.md).
server-check:
	dune exec test/test_server.exe

# Device-model gate: the full suite with every CNFET forced onto each
# registered backend (see docs/MODELS.md).  Suites that pin bytes for
# deck-declared models neutralise or override the variable.
models-check:
	CNT_MODEL=piecewise dune runtest --force
	CNT_MODEL=vs dune runtest --force

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
