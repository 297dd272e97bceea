# Convenience targets; `make ci` is what the CI workflow runs.

.PHONY: all build test test-release bench bench-gate bench-scale sim-bench \
	fmt smoke doctor-smoke serve-smoke trace-smoke report-smoke soak-smoke \
	benchstats-test ci clean

all: build

build:
	dune build @all

test:
	dune runtest

# The same tests in the release profile, which the benchmark builds: only
# there is the linear-algebra row-update kernel inlined across modules
# (the dev profile compiles with -opaque), so the pinned answers are
# checked in the build that runs them. Mirrored by the bench-regression
# CI job.
test-release:
	dune runtest --profile release

bench:
	dune exec bench/main.exe

# Unit tests of the statistics behind perfbench/run.py (quantiles,
# reference scaling, spread); plain python3, no build needed.
benchstats-test:
	python3 perfbench/test_benchstats.py

# Spectral regression gate, mirrored by the bench-regression CI job:
# time the N=5 paper model (plus the pool/cache speedups) into a scratch
# copy of the committed BENCH_history.jsonl, then fail if the fresh
# spectral seconds per solve exceed 2x the best committed run, or if
# --detect confirms an upward step on a gated solver.
bench-gate:
	cp BENCH_history.jsonl /tmp/urs_gate_history.jsonl
	URS_BENCH_HISTORY=/tmp/urs_gate_history.jsonl \
	  dune exec bench/main.exe -- n5 speedup
	dune exec bin/urs_cli.exe -- report \
	  --history /tmp/urs_gate_history.jsonl --max-ratio 2.0 --detect

# Spectral stages against N, mirrored by the bench-regression CI job:
# the bench `scale` section (release profile) solves the paper model at
# N = 5..24 into a scratch history and prints each stage's seconds and
# log-log exponent; the table is kept in bench-scale.txt. It runs in a
# scratch directory, so the BENCH_solvers.json and BENCH_ledger.jsonl
# of an earlier bench-gate stay as they are. The timings are ungated;
# the answers are not: a size that does not solve, or whose residual
# exceeds 1e-10, makes the bench exit 1 and fails the target, after the
# table is printed.
bench-scale:
	dune build --profile release bench/main.exe
	mkdir -p /tmp/urs_scale
	cd /tmp/urs_scale && URS_BENCH_HISTORY=/tmp/urs_scale_history.jsonl \
	  $(CURDIR)/_build/default/bench/main.exe scale > $(CURDIR)/bench-scale.txt; \
	  status=$$?; cat $(CURDIR)/bench-scale.txt; exit $$status

# The pinned ocamlformat (see .ocamlformat) is not a build dependency of
# the library, so a missing binary only skips the check locally; CI
# installs it and a divergence fails the build.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	elif [ -n "$$CI" ]; then \
	  echo "fmt: ocamlformat is required in CI (version pinned in .ocamlformat)"; \
	  exit 1; \
	else \
	  echo "fmt: ocamlformat not installed; skipping (CI gates on this)"; \
	fi

# End-to-end observability smoke test: a solve must emit a Prometheus
# snapshot containing the headline instrumentation.
smoke:
	dune exec bin/urs_cli.exe -- solve --metrics - \
	  --ledger /tmp/urs_smoke_ledger.jsonl > /tmp/urs_metrics.prom
	grep -q '^urs_spectral_solve_seconds' /tmp/urs_metrics.prom
	grep -q '^urs_spectral_eigenvalues'   /tmp/urs_metrics.prom
	grep -q '^urs_sim_events_total'       /tmp/urs_metrics.prom
	grep -q '"kind":"solver.evaluate"'    /tmp/urs_smoke_ledger.jsonl
	@echo "smoke: ok"

# The quick health grid must not come back SUSPECT (exit code 1 if so).
doctor-smoke:
	dune exec bin/urs_cli.exe -- doctor --quick

# The HTTP exporter must answer /metrics, /healthz, /runs, /timeline
# and /progress.
serve-smoke: build
	sh scripts/serve_smoke.sh

# A Perfetto trace exported from a real profiled run must parse (with
# the in-repo JSON parser), carry complete events and include at least
# one GC counter track (ph=C) merged in by --profile-gc plus the
# conv:* convergence residual tracks (finite, non-increasing after the
# last deflation, ending converged); and a --jobs 4 sweep must export
# one connected span tree with cross-domain flow (ph=s/f) arrows
# between the submitting and worker domains.
trace-smoke: build
	dune exec bin/urs_cli.exe -- solve --profile-gc \
	  --trace /tmp/urs_trace_perfetto.json --trace-format perfetto \
	  > /dev/null
	dune exec scripts/validate_trace.exe -- --require-counter \
	  --require-convergence /tmp/urs_trace_perfetto.json
	dune exec bin/urs_cli.exe -- sweep load --range 0.05:0.9:24 \
	  -N 5 --lambda 4 --jobs 4 --no-cache \
	  --trace /tmp/urs_trace_flows.json --trace-format perfetto \
	  > /dev/null
	dune exec scripts/validate_trace.exe -- --require-flows \
	  /tmp/urs_trace_flows.json

# Perf-history round trip: two quick bench runs append to a scratch
# history (URS_BENCH_HISTORY keeps the committed BENCH_history.jsonl
# out of it), then `urs report` must render the trend and exit 0 —
# both entries come from this machine, so the regression gate holds.
# The breach leg feeds it a two-entry history whose latest spectral run
# is 3x its best: `urs report --max-ratio 2.0`, the exit path bench-gate
# relies on, must then exit exactly 1.
report-smoke: build
	rm -f /tmp/urs_report_history.jsonl
	URS_BENCH_HISTORY=/tmp/urs_report_history.jsonl \
	  dune exec bench/main.exe -- n5 > /dev/null
	URS_BENCH_HISTORY=/tmp/urs_report_history.jsonl \
	  dune exec bench/main.exe -- n5 > /dev/null
	dune exec bin/urs_cli.exe -- report --detect \
	  --history /tmp/urs_report_history.jsonl --last 2
	printf '%s\n' \
	  '{"schema":"urs-perf/1","time":1,"git_rev":"best","ocaml":"5.1.1","jobs":1,"sections":{"n5":1.9},"solvers":{"spectral":{"seconds":0.0026,"minor_words":0,"promoted_words":0,"major_words":0}}}' \
	  '{"schema":"urs-perf/1","time":2,"git_rev":"slow","ocaml":"5.1.1","jobs":1,"sections":{"n5":5.7},"solvers":{"spectral":{"seconds":0.0078,"minor_words":0,"promoted_words":0,"major_words":0}}}' \
	  > /tmp/urs_report_breach.jsonl
	dune exec bin/urs_cli.exe -- report --max-ratio 2.0 \
	  --history /tmp/urs_report_breach.jsonl > /dev/null; test $$? -eq 1
	@echo "report-smoke: ok"

# Service-level soak: `urs serve` under SOAK_SECONDS (default 60) of
# open-loop solve traffic must finish with zero 5xx, a finite p99 from
# the histogram-quantile export and `urs slo check` exit 0; the same
# server with a starved solver (--solve-max-iter 1) must breach the
# error-rate SLO and flip `urs slo check` to exit 1. The healthy leg
# runs the ledger with rotation (64 KiB segments, keep 3, batched
# flushes) and must end disk-bounded with every segment parseable; a
# third bounded-retention leg reconciles `urs query` per-route counts
# against urs_http_requests_total.
soak-smoke: build
	sh scripts/soak_smoke.sh

# Simulation perf gate, mirrored by the sim-perf CI job: run the `sim`
# bench section twice against a scratch history (release profile, so
# cross-module inlining is on and the engine and its probes are actually
# allocation-free), then gate seconds-per-event at 1.5x via
# `urs report` for both of its legs (`sim`: the bare engine;
# `sim_probe`: Replicate.run with its default timeline probes), and
# check that --jobs 1 and --jobs 4 produce byte-identical simulation
# summaries.
sim-bench:
	rm -f /tmp/urs_sim_history.jsonl
	URS_BENCH_HISTORY=/tmp/urs_sim_history.jsonl \
	  dune exec --profile release bench/main.exe -- sim > /dev/null
	URS_BENCH_HISTORY=/tmp/urs_sim_history.jsonl \
	  dune exec --profile release bench/main.exe -- sim > /dev/null
	dune exec --profile release bin/urs_cli.exe -- report \
	  --history /tmp/urs_sim_history.jsonl --last 2 --max-ratio 1.5
	dune exec --profile release bin/urs_cli.exe -- simulate -N 10 \
	  --lambda 9.176 --duration 20000 --replications 4 --jobs 1 \
	  > /tmp/urs_sim_j1.txt
	dune exec --profile release bin/urs_cli.exe -- simulate -N 10 \
	  --lambda 9.176 --duration 20000 --replications 4 --jobs 4 \
	  > /tmp/urs_sim_j4.txt
	cmp /tmp/urs_sim_j1.txt /tmp/urs_sim_j4.txt
	@echo "sim-bench: ok"

ci: fmt build test benchstats-test smoke doctor-smoke serve-smoke trace-smoke \
	report-smoke soak-smoke sim-bench

clean:
	dune clean
