.PHONY: all build test check smoke check-smoke analyze-smoke fuzz-smoke \
	matrix-smoke validate-smoke trace-smoke perf-smoke serve-smoke \
	serve-scale-smoke serve-bench cross-cache-smoke perfbench-smoke \
	bench-compare regen-golden bench clean

all: build

build:
	dune build @all

test:
	dune runtest

# the tier-1 gate: everything compiles, the full suite is green, a
# short parallel fuzz campaign finds nothing, the block validator
# passes every registry workload's artifacts, the observability layer
# round-trips (valid Chrome JSON, golden trace matches), served results
# are byte-identical to direct runs (serve-smoke), the benchmark's
# self-check passes (perfbench-smoke), and a fresh uncached -j1 Figure 7
# sweep reproduces all 280 committed cycle counts in BENCH_fig7.json
# (the cache is bypassed so a stale entry cannot hide drift)
check:
	dune build @all && dune runtest && $(MAKE) fuzz-smoke && $(MAKE) matrix-smoke \
	&& $(MAKE) validate-smoke && $(MAKE) check-smoke && $(MAKE) analyze-smoke \
	&& $(MAKE) trace-smoke && $(MAKE) perf-smoke \
	&& $(MAKE) serve-smoke && $(MAKE) serve-scale-smoke && $(MAKE) perfbench-smoke \
	&& tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT \
	&& ./_build/default/bench/main.exe fig7 -j 1 --no-cache --json "$$tmp" >/dev/null \
	&& ./_build/default/bin/bench_compare.exe BENCH_fig7.json "$$tmp"

# compile the example kernels plus 50 fixed-seed generated kernels
# under every configuration with the per-pass static verifier on; any
# checker diagnostic fails the run
check-smoke: build
	dune exec bin/fuzz.exe -- --check-smoke examples/kernels -j 4

# the ineffectuality lint gate: run the Psi-SSA analysis in lint mode
# (report, don't delete) over the example kernels plus 50 fixed-seed
# generated kernels; every finding is cross-validated against the
# exhaustive path enumerator, so one false positive fails the run
analyze-smoke: build
	dune exec bin/fuzz.exe -- --analyze-smoke examples/kernels -j 4

# seconds-long differential-fuzzing sanity run (small programs, every
# config, both simulators, block validator, parallel path)
fuzz-smoke: build
	dune exec bin/fuzz.exe -- --seed 1 -n 40 -j 4 --min-size 4 --max-size 12 --no-minimize

# the backend-differential gate: the same oracle with the machine
# matrix on, so every kernel x config pair must reproduce the reference
# results on the tiled grid AND the in-order EDGE core
matrix-smoke: build
	dune exec bin/fuzz.exe -- --matrix --seed 7000 -n 40 -j 4 --min-size 4 --max-size 14 --no-minimize

# the block validator over the artifacts of all 29 registry workloads
# under every oracle configuration (dune runtest validates a 6-workload
# slice); prints how many blocks path enumeration declined, and any
# failure fails the run
validate-smoke: build
	dune exec bin/fuzz.exe -- --workloads -j 4

# seconds-long end-to-end check of the tracing/metrics layer: run one
# golden kernel traced, validate the Chrome JSON export, compare the
# text trace against its blessed golden
trace-smoke: build
	dune exec test/trace_smoke.exe

# diff two BENCH_fig7.json files: fails on any per-benchmark cycle
# drift, reports the wall-clock delta
#   make bench-compare BASE=old.json NEW=new.json
BASE ?= BENCH_fig7.json
NEW ?= BENCH_fig7.json
bench-compare: build
	dune exec bin/bench_compare.exe -- $(BASE) $(NEW)

# run the smoke sweep (2 workloads x 2 configs) twice against a fresh
# temporary cache directory: the warm run must hit the cache for all 4
# experiments, report at least a 2x wall-time improvement, and print
# identical cycle counts
perf-smoke: build
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	cold=$$(./_build/default/bench/main.exe smoke --cache-dir "$$dir") && \
	warm=$$(./_build/default/bench/main.exe smoke --cache-dir "$$dir") && \
	cc=$$(printf '%s\n' "$$cold" | grep '^cycles ') && \
	wc=$$(printf '%s\n' "$$warm" | grep '^cycles ') && \
	if [ "$$cc" != "$$wc" ]; then \
	  echo "perf-smoke: FAIL: warm-cache cycles differ"; \
	  printf 'cold:\n%s\nwarm:\n%s\n' "$$cc" "$$wc"; exit 1; fi && \
	printf '%s\n' "$$warm" | grep -q '^cache: 4 hits, 0 misses' || \
	  { echo "perf-smoke: FAIL: warm run missed the cache"; \
	    printf '%s\n' "$$warm" | grep '^cache:'; exit 1; } && \
	ct=$$(printf '%s\n' "$$cold" | sed -n 's/^smoke: \([0-9.]*\)s wall.*/\1/p') && \
	wt=$$(printf '%s\n' "$$warm" | sed -n 's/^smoke: \([0-9.]*\)s wall.*/\1/p') && \
	awk -v c="$$ct" -v w="$$wt" 'BEGIN { exit !(2 * w <= c) }' || \
	  { echo "perf-smoke: FAIL: warm run not 2x faster ($$ct s -> $$wt s)"; exit 1; } && \
	echo "perf-smoke: OK (cold $$ct s, warm $$wt s, cycles identical)"

# spawn dfpd.exe, drive ~20 mixed jobs through the socket (cold + warm
# workload jobs, a source job, a traced job, a guaranteed timeout, a
# malformed request, bad names), then shut down cleanly: structured
# errors only, cold digests identical to direct in-process runs, warm
# >= 10x cold, no leaked sockets or temp files; then ship the same
# specs as pre-encoded images to a fresh server, digests identical too
serve-smoke: build
	./_build/default/bin/serve_bench.exe --smoke

# the scaling gate: pipelined batch framing at -j4 must clear at least
# 2x the lock-step -j1 warm throughput, and cold throughput must not
# regress from idle-worker overhead (0.8x tolerance for host noise);
# fresh -j1 and -j4 servers alternate for 5 rounds of the 8-job bench
# mix and both bounds apply to the median of the per-round -j4/-j1
# ratios
serve-scale-smoke: build
	./_build/default/bin/serve_bench.exe --scale-smoke

# the serve throughput benchmark; writes BENCH_serve.json (compare
# against a baseline with `make bench-compare BASE=... NEW=...` --
# latency/ratio drift is informational; the byte-identical flags and
# >20% warm-throughput regressions gate)
serve-bench: build
	./_build/default/bin/serve_bench.exe --out BENCH_serve.json

# two dfpd processes sharing one --cache-dir: the second must warm-hit
# the first's results with zero decode errors and no torn reads
cross-cache-smoke: build
	./_build/default/bin/serve_bench.exe --cross-cache

# the repo benchmark's self-check (perfbench/run.py): a few ops of every
# workload, twice per trace mode, every op verified and the exact
# metrics equal between the two runs; fuzz-oracle's short mode also
# re-checks every kernel with Oracle.check itself, so perfbench's copy
# of the oracle's calls cannot drift from the oracle
perfbench-smoke: build
	python3 perfbench/run.py --self-check

# re-bless the golden trace files after an intentional schedule change,
# and the pinned compiler output (test/golden/compiled.digests) after an
# intentional code change; inspect the diff before committing
regen-golden: build
	dune exec test/regen_golden.exe

# seconds-long sanity run of the parallel sweep path (2 workloads,
# 2 configs, 2 domains, one workload per pool task)
smoke: build
	dune exec bench/main.exe -- smoke

# the full evaluation; writes BENCH_fig7.json
bench: build
	dune exec bench/main.exe

clean:
	dune clean
