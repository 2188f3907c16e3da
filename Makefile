# Convenience wrapper around dune. See README.md.

# Recipes that pipe into tee must fail when the command before the pipe
# fails, which needs bash's pipefail (/bin/sh may be dash).
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

.PHONY: all build test test-props bench bench-smoke kernels-smoke \
	trace-smoke fuzz-smoke serve-smoke metrics-smoke table1-smoke examples \
	clean reproduce

all: build

build:
	dune build @all

test:
	dune runtest

# Property suite only (qcheck). The @props alias pins QCHECK_SEED and sets
# QCHECK_LONG, so counts are 3x the quick default and runs are
# reproducible; `dune runtest` already includes it via the runtest alias.
test-props:
	dune build @props --force

bench:
	dune exec bench/main.exe

# Tiny CI gates: exits non-zero if (a) any domain-parallel kernel produces
# a result that is not bit-identical to the sequential path, (b) the
# lib/obs work counters for the pinned workload drift >5% from the
# recorded BENCH_counters_baseline.json, (c) any fitted log-log
# complexity exponent leaves its declared budget or drifts >0.1 from the
# recorded BENCH_budgets_baseline.json, or (d) the dynamic ball tree
# answers differently from a static rebuild, amortized insert loses to
# rebuild-per-insert at n=4096, or its deterministic rebuild-work
# counts drift from BENCH_dynamic_baseline.json. Cheap enough to run
# alongside `dune runtest`.
bench-smoke:
	dune exec bench/main.exe -- smoke_parallel smoke_counters smoke_budgets smoke_kernels smoke_dynamic

# Compute-kernel gate on its own: boxed vs packed distance kernels
# (per-index and row), bit-identity of every variant, exact eval-counter
# totals vs BENCH_kernels_baseline.json, and the packed not-slower gates.
kernels-smoke:
	dune exec bench/main.exe -- smoke_kernels

# Trace round-trip gate: record a traced GCSO run, re-read the JSONL
# through the csokit parser (proving writer and parser agree) and
# require its radius grid (gcso.lattice), its guesses (gcso.guess) and
# their MWU runs (mwu.run), check the Chrome export parses, and re-check
# the committed budget baseline through the CLI path. A traced
# relational run makes the same round
# trip and must keep the oracle.farthest_linf and oracle.outside_witness
# spans, which the benchmark's table1 attribution reads; a traced CSO-LP
# run must keep the LP row's three layers (cso.lp_build, simplex.solve,
# cso.lp_round); a traced run of both coreset rows must keep their
# once-per-solve phase 1 (cso_disjoint.cores, gcso_disjoint.cores), the
# geometric row's lattice (gcso_disjoint.lattice) and one span per
# guess (cso_disjoint.guess, gcso_disjoint.guess). Temp artifacts are
# cleaned up on success.
trace-smoke:
	dune exec bin/csokit.exe -- trace --run gcso -n 60 --seed 7 \
		--jsonl trace_smoke.jsonl --chrome trace_smoke_chrome.json
	dune exec bin/csokit.exe -- trace --in trace_smoke.jsonl \
		--require-span gcso.lattice \
		--require-span gcso.guess \
		--require-span mwu.run
	dune exec bin/csokit.exe -- trace --run relational -n 60 --seed 7 \
		--jsonl trace_smoke_rel.jsonl
	dune exec bin/csokit.exe -- trace --in trace_smoke_rel.jsonl \
		--require-span oracle.farthest_linf \
		--require-span oracle.outside_witness
	dune exec bin/csokit.exe -- trace --run cso -n 60 --seed 7 \
		--jsonl trace_smoke_cso.jsonl
	dune exec bin/csokit.exe -- trace --in trace_smoke_cso.jsonl \
		--require-span cso.lp_build \
		--require-span simplex.solve \
		--require-span cso.lp_round
	dune exec bin/csokit.exe -- trace --run coreset -n 60 --seed 7 \
		--jsonl trace_smoke_coreset.jsonl
	dune exec bin/csokit.exe -- trace --in trace_smoke_coreset.jsonl \
		--require-span cso_disjoint.cores \
		--require-span cso_disjoint.guess \
		--require-span gcso_disjoint.cores \
		--require-span gcso_disjoint.lattice \
		--require-span gcso_disjoint.guess
	dune exec bin/csokit.exe -- budgets --series BENCH_budgets_baseline.json
	rm -f trace_smoke.jsonl trace_smoke_chrome.json trace_smoke_rel.jsonl \
		trace_smoke_cso.jsonl trace_smoke_coreset.jsonl

# Differential fuzzing gate: every optimized substrate against its
# naive reference oracle / metamorphic invariants (lib/refcheck), 1000
# seeded random instances per check under two fixed master seeds.
# Deterministic, runs in a few seconds, exits non-zero and prints a
# minimized counterexample plus a replay command on any divergence.
fuzz-smoke:
	dune exec bin/csokit.exe -- fuzz --seed 20250807 --cases 1000
	dune exec bin/csokit.exe -- fuzz --seed 1 --cases 1000

# End-to-end daemon gate: boot csokitd (--fake-clock: constant zero
# request-phase timings, so the observability dumps are deterministic),
# run a fixed preamble against the live daemon (`csokitd metrics`,
# `csokitd top --once` — their requests are part of what the golden
# metrics/flight replies pin), then replay the golden JSONL session
# through the real client and require the printed transcript to match
# test/serve_golden_transcript.jsonl byte-for-byte (the session's final
# shutdown request also ends the daemon). Then the in-process replay
# gate (smoke_serve) pins request/response counts and the reply-payload
# digest against BENCH_serve_baseline.json.
serve-smoke:
	dune build bin/csokitd.exe bench/main.exe
	rm -f serve_smoke.sock serve_transcript.jsonl
	./_build/default/bin/csokitd.exe serve --socket serve_smoke.sock --fake-clock & \
	./_build/default/bin/csokitd.exe metrics --socket serve_smoke.sock > /dev/null; \
	./_build/default/bin/csokitd.exe top --once --socket serve_smoke.sock > /dev/null; \
	./_build/default/bin/csokitd.exe client --socket serve_smoke.sock \
		--script test/serve_golden_session.jsonl > serve_transcript.jsonl; \
	wait
	diff -u test/serve_golden_transcript.jsonl serve_transcript.jsonl
	dune exec bench/main.exe -- smoke_serve
	rm -f serve_smoke.sock serve_transcript.jsonl

# OpenMetrics gate: boot csokitd with the fake clock, drive traffic
# through it, then require (a) `csokitd metrics` to emit text ending in
# the mandatory "# EOF" terminator, (b) `csokitd top --once` to render
# a sample, and (c) `csokitd check` to pass the exporter's stdlib-only
# well-formedness gates — HELP/TYPE lines, strictly ascending le bounds
# with monotone cumulative counts, +Inf bucket equal to the count, an
# exact byte-for-byte re-render of the parsed structure, and a flight
# JSONL dump whose re-parse round-trips exactly.
metrics-smoke:
	dune build bin/csokitd.exe
	rm -f metrics_smoke.sock metrics_smoke.txt metrics_check.txt
	./_build/default/bin/csokitd.exe serve --socket metrics_smoke.sock --fake-clock & \
	( ./_build/default/bin/csokitd.exe client --socket metrics_smoke.sock \
		--script test/metrics_smoke_session.jsonl > /dev/null \
	  && ./_build/default/bin/csokitd.exe metrics --socket metrics_smoke.sock > metrics_smoke.txt \
	  && ./_build/default/bin/csokitd.exe top --once --socket metrics_smoke.sock \
	  && ./_build/default/bin/csokitd.exe check --socket metrics_smoke.sock > metrics_check.txt ); \
	echo '{"req":"shutdown"}' | ./_build/default/bin/csokitd.exe client \
		--socket metrics_smoke.sock > /dev/null; \
	wait
	grep -q '^metrics: ok' metrics_check.txt
	grep -q '^flight: ok' metrics_check.txt
	grep -q '^# EOF$$' metrics_smoke.txt
	rm -f metrics_smoke.sock metrics_smoke.txt metrics_check.txt

# Table 1 gate: runs the T1.R1-R8 rows and exits non-zero when any row
# reads VIOLATED (each row's bound and verdict come from
# lib/refcheck/table1.ml). Not part of `dune runtest`.
table1-smoke:
	dune exec bench/main.exe -- table1

examples:
	dune exec examples/quickstart.exe
	dune exec examples/fraud_detection.exe
	dune exec examples/sensor_network.exe
	dune exec examples/crowdsourcing.exe
	dune exec examples/robust_summaries.exe

# Full reproduction run: tests, the differential fuzz gate, the
# trace/budget round-trip gate, and the Table-1 harness, outputs
# captured. Any failing step fails the run; the harness fails when a
# Table 1 row reads VIOLATED.
reproduce:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt
	$(MAKE) fuzz-smoke 2>&1 | tee fuzz_output.txt
	$(MAKE) trace-smoke 2>&1 | tee trace_output.txt
	$(MAKE) serve-smoke 2>&1 | tee serve_output.txt
	$(MAKE) metrics-smoke 2>&1 | tee metrics_output.txt
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

clean:
	dune clean
