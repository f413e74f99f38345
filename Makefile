.PHONY: all build test bench-smoke smoke chaos-smoke churn-smoke serve-smoke obs-smoke check-claims update-baseline update-baseline-full perf-pairs full-timing ci clean

all: build

build:
	dune build

test:
	dune runtest

# The pair arithmetic of bench/pairs.py (its doctests: ties, the 9-of-10
# gain rule, quartile distances, worse, unresolved, lower and higher),
# then the observability surface: a traced quick experiment must
# produce valid trace/v1 + metrics/v1 documents whose probe accounting
# replays exactly, and an instrumented run must leave the disabled-path
# cost unchanged (bench/main.exe, the obs guard). Everything lands under
# artifacts/ (gitignored), not the repo root.
bench-smoke:
	mkdir -p artifacts
	python3 -m doctest bench/pairs.py
	dune exec bin/faultroute.exe -- exp E1 --quick --strict-shortfall --trace artifacts/SMOKE_trace.jsonl --metrics-out artifacts/SMOKE_metrics.json > /dev/null
	head -1 artifacts/SMOKE_trace.jsonl | grep -q '"schema": "trace/v1"'
	grep -q '"schema": "metrics/v1"' artifacts/SMOKE_metrics.json
	grep -q '"trial.accepts"' artifacts/SMOKE_metrics.json
	dune exec bin/faultroute.exe -- trace artifacts/SMOKE_trace.jsonl
	dune exec bench/main.exe

# The quick catalog on two domains — exercises the parallel engine end
# to end; output must match a --jobs 1 run byte for byte, and any
# under-sampled report fails the run (exit 3). Its trace must cmp equal
# to a --jobs 1 run's, where every experiment writes straight to the
# sink (at two jobs some spool to a temporary file first). `check`
# takes the same common flags: its --trace must cmp equal to that
# run's and replay, and its --metrics-out must be a metrics/v1
# document. Full-mode E3, E4, E5, E7, E10, E12, E14 and E16 (the trial
# experiments, each a set of conditioned Trial runs stopped at their
# quota of acceptances) must cmp equal to
# examples/trials/full-golden.txt. Full-mode E11,
# E19 and E20 (the p sweeps that share one seed per world, and the
# good-vertex balls) must cmp equal to
# examples/percolation/sweeps-full-golden.txt, and full-mode E22 and
# E25 (the degradation sweep: every fault model's prepared sampler,
# faulted worlds, their censuses and greedy routes) must cmp equal to
# examples/percolation/degradation-full-golden.txt. Then malformed options:
# a -p outside [0, 1] (NaN and inf included), --trials 0, --budget 0,
# a mincut whose --source equals its --target, a non-finite top
# --interval, a census or threshold on mesh2:200000 (its 4e10-vertex
# union-find needs 320 GB), and an unwritable output path (README.md/x
# lies under a regular file) given to --trace, --telemetry-out,
# --metrics-out, --profile-out, --ledger, serve --evidence-out, check
# --trace, check --out or check --update --baseline exit 1 with empty stdout and one
# stderr line, before any work. Each case runs with its address space
# capped at 8 GB (ulimit -v), so the 320 GB allocation fails at once
# whatever the host's overcommit policy and never touches a page.
# simulate rejects a bad -p with exit 2 and one line beside its usage
# block. Then --help=plain for the tool and every
# subcommand must exit 0 without a single "cmdliner error" line (a bad
# escape in an option's doc string prints one per rendering). The
# binary runs directly so no dune output mixes into the stderr
# counted. Last, every Lib.Module reference in DESIGN.md, README.md,
# EXPERIMENTS.md and the lib/ interfaces must name a module that exists
# (lib/<dir>/<module>.ml, where Routing lives in lib/core); each stale
# reference is printed and fails the run.
DOC_REFS = DESIGN.md README.md EXPERIMENTS.md $(wildcard lib/*/*.mli)
BAD_PATH = README.md/x
smoke:
	mkdir -p artifacts
	dune exec bin/faultroute.exe -- all --quick --jobs 2 --strict-shortfall --trace artifacts/SMOKE_all_trace.jsonl > /dev/null
	dune build bin/faultroute.exe
	./_build/default/bin/faultroute.exe all --quick --jobs 1 --trace artifacts/SMOKE_all_trace_j1.jsonl > /dev/null
	cmp artifacts/SMOKE_all_trace.jsonl artifacts/SMOKE_all_trace_j1.jsonl
	./_build/default/bin/faultroute.exe check --quick --jobs 2 --trace artifacts/SMOKE_check_trace.jsonl --metrics-out artifacts/SMOKE_check_metrics.json > /dev/null
	cmp artifacts/SMOKE_all_trace.jsonl artifacts/SMOKE_check_trace.jsonl
	./_build/default/bin/faultroute.exe trace artifacts/SMOKE_check_trace.jsonl > /dev/null
	grep -q '"schema": "metrics/v1"' artifacts/SMOKE_check_metrics.json
	for e in E3 E4 E5 E7 E10 E12 E14 E16; do ./_build/default/bin/faultroute.exe exp $$e --jobs 2 || exit 1; done > artifacts/SMOKE_trials_full.txt
	cmp examples/trials/full-golden.txt artifacts/SMOKE_trials_full.txt
	for e in E11 E19 E20; do ./_build/default/bin/faultroute.exe exp $$e --jobs 2 || exit 1; done > artifacts/SMOKE_sweeps_full.txt
	cmp examples/percolation/sweeps-full-golden.txt artifacts/SMOKE_sweeps_full.txt
	for e in E22 E25; do ./_build/default/bin/faultroute.exe exp $$e --jobs 2 || exit 1; done > artifacts/SMOKE_degradation_full.txt
	cmp examples/percolation/degradation-full-golden.txt artifacts/SMOKE_degradation_full.txt
	for args in 'route hypercube:8 -p 1.5' 'route hypercube:8 -p nan' 'census hypercube:8 -p 1.5' 'census hypercube:8 -p inf' 'threshold mesh2:8 --trials 0' 'route hypercube:8 --budget 0' 'mincut hypercube:4 --source 3 --target 3' \
	  'census mesh2:200000' 'threshold mesh2:200000 --trials 1' \
	  'top --replay --interval nan examples/obs/serve-telemetry.jsonl' 'top --replay --interval inf examples/obs/serve-telemetry.jsonl' \
	  'exp E1 --quick --trace $(BAD_PATH)' 'route hypercube:4 --trace $(BAD_PATH)' 'simulate hypercube:4 --trace $(BAD_PATH)' \
	  'exp E1 --quick --telemetry-out $(BAD_PATH)' 'route hypercube:4 --telemetry-out $(BAD_PATH)' 'simulate hypercube:4 --telemetry-out $(BAD_PATH)' \
	  'exp E1 --quick --metrics-out $(BAD_PATH)' 'exp E1 --quick --profile-out $(BAD_PATH)' 'exp E1 --quick --ledger $(BAD_PATH)' \
	  'serve --manifest examples/serve/session.json --queries examples/serve/queries.jsonl --evidence-out $(BAD_PATH)' \
	  'check --quick --trace $(BAD_PATH)' 'check --quick --out $(BAD_PATH)' 'check --quick --update --baseline $(BAD_PATH)'; do \
	  (ulimit -v 8000000; exec ./_build/default/bin/faultroute.exe $$args) > artifacts/SMOKE_opt.out 2> artifacts/SMOKE_opt.err; \
	  test $$? -eq 1 || { echo "$$args: want exit 1"; exit 1; }; \
	  test ! -s artifacts/SMOKE_opt.out || { echo "$$args: stdout not empty"; exit 1; }; \
	  test "$$(wc -l < artifacts/SMOKE_opt.err)" -eq 1 || { echo "$$args: want one stderr line"; exit 1; }; \
	done
	for p in 1.5 nan; do \
	  ./_build/default/bin/faultroute.exe simulate hypercube:8 -p $$p > artifacts/SMOKE_opt.out 2> artifacts/SMOKE_opt.err; \
	  test $$? -eq 2 || { echo "simulate -p $$p: want exit 2"; exit 1; }; \
	  test ! -s artifacts/SMOKE_opt.out || { echo "simulate -p $$p: stdout not empty"; exit 1; }; \
	  test "$$(grep -vc '^usage:\|^ ' artifacts/SMOKE_opt.err)" -eq 1 || { echo "simulate -p $$p: want one error line"; exit 1; }; \
	done
	for c in '' all census check evidence exp list mincut obs route serve simulate threshold top trace 'obs diff' 'obs folded' 'obs report' 'obs validate'; do \
	  ./_build/default/bin/faultroute.exe $$c --help=plain > artifacts/SMOKE_help.txt 2>&1 || { echo "$$c --help: exit $$?"; exit 1; }; \
	  if grep -q 'cmdliner error' artifacts/SMOKE_help.txt; then echo "$$c --help: cmdliner error"; exit 1; fi; \
	done
	@grep -oHE '\b[A-Z][a-z_]*\.[A-Z][A-Za-z0-9_]*' $(DOC_REFS) | sort -u | \
	  awk -F: '{ split($$2, name, "."); dir = tolower(name[1]); if (dir == "routing") dir = "core"; \
	    if (system("test -d lib/" dir) != 0) next; \
	    ml = "lib/" dir "/" tolower(substr(name[2], 1, 1)) substr(name[2], 2) ".ml"; \
	    if (system("test -f " ml) != 0) { print $$1 ": " $$2 " names no " ml; bad = 1 } } \
	    END { exit bad }'

# Fault tolerance end to end. Leg 1: the quick catalog under a
# recoverable fault plan (injected crashes, a stall, a flaky chunk)
# must be byte-identical to the fault-free run at --jobs 1 and 4, with
# the faults/v1 summary confined to stderr. Leg 2: a die@3 plan kills
# the process mid-run (exit 137) while completed chunks stream to an
# append-only checkpoint; --resume at a different job count completes
# the run byte-identically, restoring rather than recomputing the
# finished chunks (checkpoint.chunks.restored > 0 in metrics/v1). The
# jobs-1 run appends 4 chunks and a --jobs 2 run appends at least those
# (contiguous prefix), so the third append always happens; die@6 fired
# in only some --jobs 2 schedules. Leg 3: the committed
# examples/checkpoint/e2-v1.jsonl, a partial journal written before the
# single cell format, resumes at --jobs 4 byte-identically, restoring
# all 3 of its chunks. Leg 4: the degradation sweep (E25, whose Runner
# grid E22 shares) killed by die@10 resumes at --jobs 4
# byte-identically with restored chunks. Its quick grid is 75 cells in
# 19 chunks and the sweep has no early stop, so every --jobs 2
# schedule appends all 19 and the tenth append always happens. Leg 5:
# E6's depth x p sweep, a Runner grid of 10 chunks for quick E6 with no
# early stop, killed by die@5 resumes at --jobs 4 byte-identically with
# restored chunks; every --jobs 2 schedule appends all 10 chunks, so
# the fifth append always happens. Leg 6: a malformed supervision flag (--retries below 1, a zero, negative,
# nan or inf --chunk-deadline, --resume without --checkpoint) exits 1
# with one stderr line and empty stdout; it runs the binary directly
# so no dune output mixes into stderr.
chaos-smoke:
	mkdir -p artifacts
	rm -rf artifacts/CHAOS_ckpt
	dune exec bin/faultroute.exe -- all --quick --jobs 2 --seed 1 > artifacts/CHAOS_clean.txt
	dune exec bin/faultroute.exe -- all --quick --jobs 1 --seed 1 --inject 'crash@3,stall@5,flaky:0.05x2,seed=9' > artifacts/CHAOS_fault_j1.txt 2> artifacts/CHAOS_faults.json
	dune exec bin/faultroute.exe -- all --quick --jobs 4 --seed 1 --inject 'crash@3,stall@5,flaky:0.05x2,seed=9' > artifacts/CHAOS_fault_j4.txt 2> /dev/null
	cmp artifacts/CHAOS_clean.txt artifacts/CHAOS_fault_j1.txt
	cmp artifacts/CHAOS_clean.txt artifacts/CHAOS_fault_j4.txt
	grep -q '"schema": "faults/v1"' artifacts/CHAOS_faults.json
	dune exec bin/faultroute.exe -- exp E2 --quick --jobs 2 --seed 1 > artifacts/CHAOS_e2_clean.txt
	dune exec bin/faultroute.exe -- exp E2 --quick --jobs 2 --seed 1 --checkpoint artifacts/CHAOS_ckpt --inject 'die@3' > /dev/null 2>&1; test $$? -eq 137
	dune exec bin/faultroute.exe -- exp E2 --quick --jobs 4 --seed 1 --checkpoint artifacts/CHAOS_ckpt --resume --metrics-out artifacts/CHAOS_metrics.json > artifacts/CHAOS_e2_resumed.txt
	cmp artifacts/CHAOS_e2_clean.txt artifacts/CHAOS_e2_resumed.txt
	grep -q '"checkpoint.chunks.restored": [1-9]' artifacts/CHAOS_metrics.json
	rm -rf artifacts/CHAOS_v1_ckpt
	mkdir -p artifacts/CHAOS_v1_ckpt
	cp examples/checkpoint/e2-v1.jsonl artifacts/CHAOS_v1_ckpt/checkpoint.jsonl
	dune exec bin/faultroute.exe -- exp E2 --quick --jobs 4 --seed 1 --checkpoint artifacts/CHAOS_v1_ckpt --resume --metrics-out artifacts/CHAOS_v1_metrics.json > artifacts/CHAOS_v1_resumed.txt
	cmp artifacts/CHAOS_e2_clean.txt artifacts/CHAOS_v1_resumed.txt
	grep -q '"checkpoint.chunks.restored": \([3-9]\|[1-9][0-9]\)' artifacts/CHAOS_v1_metrics.json
	rm -rf artifacts/CHAOS_e25_ckpt
	dune exec bin/faultroute.exe -- exp E25 --quick --jobs 2 --seed 1 > artifacts/CHAOS_e25_clean.txt
	dune exec bin/faultroute.exe -- exp E25 --quick --jobs 2 --seed 1 --checkpoint artifacts/CHAOS_e25_ckpt --inject 'die@10' > /dev/null 2>&1; test $$? -eq 137
	dune exec bin/faultroute.exe -- exp E25 --quick --jobs 4 --seed 1 --checkpoint artifacts/CHAOS_e25_ckpt --resume --metrics-out artifacts/CHAOS_e25_metrics.json > artifacts/CHAOS_e25_resumed.txt
	cmp artifacts/CHAOS_e25_clean.txt artifacts/CHAOS_e25_resumed.txt
	grep -q '"checkpoint.chunks.restored": [1-9]' artifacts/CHAOS_e25_metrics.json
	rm -rf artifacts/CHAOS_e6_ckpt
	dune exec bin/faultroute.exe -- exp E6 --quick --jobs 2 --seed 1 > artifacts/CHAOS_e6_clean.txt
	dune exec bin/faultroute.exe -- exp E6 --quick --jobs 2 --seed 1 --checkpoint artifacts/CHAOS_e6_ckpt --inject 'die@5' > /dev/null 2>&1; test $$? -eq 137
	dune exec bin/faultroute.exe -- exp E6 --quick --jobs 4 --seed 1 --checkpoint artifacts/CHAOS_e6_ckpt --resume --metrics-out artifacts/CHAOS_e6_metrics.json > artifacts/CHAOS_e6_resumed.txt
	cmp artifacts/CHAOS_e6_clean.txt artifacts/CHAOS_e6_resumed.txt
	grep -q '"checkpoint.chunks.restored": [1-9]' artifacts/CHAOS_e6_metrics.json
	dune build bin/faultroute.exe
	for flag in '--retries 0' '--retries=-3' '--chunk-deadline=0' '--chunk-deadline=-1' '--chunk-deadline nan' '--chunk-deadline inf' '--resume'; do \
	  ./_build/default/bin/faultroute.exe exp E1 --quick $$flag > artifacts/CHAOS_flag.out 2> artifacts/CHAOS_flag.err; \
	  test $$? -eq 1 || { echo "$$flag: want exit 1"; exit 1; }; \
	  test ! -s artifacts/CHAOS_flag.out || { echo "$$flag: stdout not empty"; exit 1; }; \
	  test "$$(wc -l < artifacts/CHAOS_flag.err)" -eq 1 || { echo "$$flag: want one stderr line"; exit 1; }; \
	done

# Dynamic faults end to end. Leg 1: a churned gossip simulation must
# be byte-identical across --jobs values (link trajectories are pure
# in the seeds, never in scheduling), and its trace/v1 must replay
# exactly. Leg 2: the churn sweep experiment (E26) killed mid-run by a
# die@N plan (exit 137) must --resume from the checkpoint at a
# different job count byte-identically, restoring finished chunks
# (float-vector cells) instead of recomputing them; so must the
# committed examples/checkpoint/e26-v1.jsonl, a partial journal whose
# 2 chunks are older vchunk lines, restoring both. Leg 3: neither the
# engine's scheduling nor the churn trajectories may move a byte of
# simulate's output — four protocols on a faulty 10-cube, the churned
# flood on mesh2:200, churned gossip and walk on an 8-cube (node
# streams drawn under churn), a churned flood whose links never recover
# (repair=0) and a greedy run whose links toggle every round
# (fail=repair=1) are compared with the committed
# examples/netsim/simulate-golden.txt, and the metrics/v1 of the
# churned flood and of the 10-cube walk (a probing protocol) with
# examples/netsim/{flood-churn,walk}-metrics-golden.json, which pins
# the counter set: a counter never ticked stays absent; and full-mode
# E26 (fail rates 0.02-0.2 at repair 0.3 over 120 gossip rounds on
# H_9, the churn plans the simulate goldens do not cover) is compared
# with examples/netsim/e26-full-golden.txt. Leg 4: an out-of-range
# --source/--target fails cleanly with empty stdout and a single error
# line naming the vertex (simulate adds its usage block): exit 2 for
# simulate, 1 for route and mincut; a churn spec repeating a key and
# --max-rounds 0 are rejected by simulate the same way. Leg 4 runs the
# binary directly so that no dune output mixes into the stderr it
# counts.
churn-smoke:
	mkdir -p artifacts
	rm -rf artifacts/CHURN_ckpt
	dune exec bin/faultroute.exe -- simulate hypercube:8 -p 1.0 --protocol gossip --churn 'fail=0.05,repair=0.3,seed=7' --rounds 40 --seed 11 --jobs 1 > artifacts/CHURN_sim_j1.txt
	dune exec bin/faultroute.exe -- simulate hypercube:8 -p 1.0 --protocol gossip --churn 'fail=0.05,repair=0.3,seed=7' --rounds 40 --seed 11 --jobs 4 > artifacts/CHURN_sim_j4.txt
	cmp artifacts/CHURN_sim_j1.txt artifacts/CHURN_sim_j4.txt
	dune exec bin/faultroute.exe -- simulate hypercube:8 -p 1.0 --protocol gossip --churn 'fail=0.05,repair=0.3,seed=7' --seed 11 --trace artifacts/CHURN_trace.jsonl > /dev/null
	head -1 artifacts/CHURN_trace.jsonl | grep -q '"schema": "trace/v1"'
	grep -q '"schema": "churnplan/v1"' artifacts/CHURN_trace.jsonl
	dune exec bin/faultroute.exe -- trace artifacts/CHURN_trace.jsonl
	dune exec bin/faultroute.exe -- exp E26 --quick --jobs 1 --seed 1 > artifacts/CHURN_e26_clean.txt
	dune exec bin/faultroute.exe -- exp E26 --quick --jobs 1 --seed 1 --checkpoint artifacts/CHURN_ckpt --inject 'die@2' > /dev/null 2>&1; test $$? -eq 137
	dune exec bin/faultroute.exe -- exp E26 --quick --jobs 4 --seed 1 --checkpoint artifacts/CHURN_ckpt --resume --metrics-out artifacts/CHURN_metrics.json > artifacts/CHURN_e26_resumed.txt
	cmp artifacts/CHURN_e26_clean.txt artifacts/CHURN_e26_resumed.txt
	grep -q '"checkpoint.chunks.restored": [1-9]' artifacts/CHURN_metrics.json
	rm -rf artifacts/CHURN_v1_ckpt
	mkdir -p artifacts/CHURN_v1_ckpt
	cp examples/checkpoint/e26-v1.jsonl artifacts/CHURN_v1_ckpt/checkpoint.jsonl
	dune exec bin/faultroute.exe -- exp E26 --quick --jobs 4 --seed 1 --checkpoint artifacts/CHURN_v1_ckpt --resume --metrics-out artifacts/CHURN_v1_metrics.json > artifacts/CHURN_v1_resumed.txt
	cmp artifacts/CHURN_e26_clean.txt artifacts/CHURN_v1_resumed.txt
	grep -q '"checkpoint.chunks.restored": \([2-9]\|[1-9][0-9]\)' artifacts/CHURN_v1_metrics.json
	rm -f artifacts/NETSIM_sim.txt
	for p in flood gossip greedy; do dune exec bin/faultroute.exe -- simulate hypercube:10 -p 0.6 --seed 5 --rounds 300 --protocol $$p >> artifacts/NETSIM_sim.txt || exit 1; done
	dune exec bin/faultroute.exe -- simulate hypercube:10 -p 0.6 --seed 5 --rounds 300 --protocol walk --metrics-out artifacts/NETSIM_walk_metrics.json >> artifacts/NETSIM_sim.txt
	dune exec bin/faultroute.exe -- simulate mesh2:200 -p 0.7 --protocol flood --churn 'fail=0.05,repair=0.3,seed=7' --metrics-out artifacts/NETSIM_flood_metrics.json >> artifacts/NETSIM_sim.txt
	for p in 'gossip --rounds 60' walk; do dune exec bin/faultroute.exe -- simulate hypercube:8 -p 0.9 --seed 11 --churn 'fail=0.05,repair=0.3,seed=7' --protocol $$p >> artifacts/NETSIM_sim.txt || exit 1; done
	dune exec bin/faultroute.exe -- simulate mesh2:60 -p 0.8 --seed 11 --protocol flood --churn 'fail=0.02,repair=0,seed=3' >> artifacts/NETSIM_sim.txt
	dune exec bin/faultroute.exe -- simulate hypercube:8 -p 0.9 --seed 11 --protocol greedy --churn 'fail=1,repair=1,seed=5' >> artifacts/NETSIM_sim.txt
	cmp examples/netsim/simulate-golden.txt artifacts/NETSIM_sim.txt
	cmp examples/netsim/flood-churn-metrics-golden.json artifacts/NETSIM_flood_metrics.json
	cmp examples/netsim/walk-metrics-golden.json artifacts/NETSIM_walk_metrics.json
	dune exec bin/faultroute.exe -- exp E26 --jobs 2 > artifacts/CHURN_e26_full.txt
	cmp examples/netsim/e26-full-golden.txt artifacts/CHURN_e26_full.txt
	dune build bin/faultroute.exe
	./_build/default/bin/faultroute.exe simulate hypercube:4 --source 99 > artifacts/NETSIM_oor.out 2> artifacts/NETSIM_oor.err; test $$? -eq 2
	test ! -s artifacts/NETSIM_oor.out
	test "$$(grep -vc '^usage:\|^ ' artifacts/NETSIM_oor.err)" -eq 1
	grep -q 'vertex 99 out of range' artifacts/NETSIM_oor.err
	./_build/default/bin/faultroute.exe simulate hypercube:4 --churn 'fail=0.1,fail=0.9' > artifacts/NETSIM_bad.out 2> artifacts/NETSIM_bad.err; test $$? -eq 2
	test ! -s artifacts/NETSIM_bad.out
	grep -q 'duplicate fail=' artifacts/NETSIM_bad.err
	./_build/default/bin/faultroute.exe simulate hypercube:4 --max-rounds 0 > artifacts/NETSIM_bad.out 2> artifacts/NETSIM_bad.err; test $$? -eq 2
	test ! -s artifacts/NETSIM_bad.out
	grep -q 'max-rounds must be >= 1' artifacts/NETSIM_bad.err
	./_build/default/bin/faultroute.exe route hypercube:4 --source 99 > artifacts/NETSIM_oor.out 2> artifacts/NETSIM_oor.err; test $$? -eq 1
	test ! -s artifacts/NETSIM_oor.out
	test "$$(wc -l < artifacts/NETSIM_oor.err)" -eq 1
	grep -q 'vertex 99 out of range' artifacts/NETSIM_oor.err
	./_build/default/bin/faultroute.exe mincut hypercube:4 --target 99 > artifacts/NETSIM_oor.out 2> artifacts/NETSIM_oor.err; test $$? -eq 1
	test ! -s artifacts/NETSIM_oor.out
	test "$$(wc -l < artifacts/NETSIM_oor.err)" -eq 1
	grep -q 'vertex 99 out of range' artifacts/NETSIM_oor.err

# The query service end to end. Leg 1: replay the committed 10k-query
# file, concatenated to 100k, against the 3-world example manifest at
# --jobs 1 and --jobs 4; answers and evidence/v1 must be byte-identical
# and every claim in the evidence file must hold (each world built
# exactly once, every admitted query answered). Leg 2: a traced run
# over the small demo queries whose trace/v1 must replay exactly. Leg
# 3: the 10k replay itself must reproduce the committed
# examples/serve/evidence-10k-golden.json byte for byte, and its
# answers the sha256 in examples/serve/answers-10k-golden.sha256, so a
# reveal or routing change that moves any answer fails even when every
# job count agrees; regenerate both only for an intended answer change.
serve-smoke:
	mkdir -p artifacts
	for i in 1 2 3 4 5 6 7 8 9 10; do cat examples/serve/queries-10k.jsonl; done > artifacts/SERVE_queries_100k.jsonl
	dune exec bin/faultroute.exe -- serve --manifest examples/serve/session.json --queries artifacts/SERVE_queries_100k.jsonl --jobs 1 --out artifacts/SERVE_answers_j1.jsonl --evidence-out artifacts/SERVE_evidence_j1.json --metrics-out artifacts/SERVE_metrics.json
	dune exec bin/faultroute.exe -- serve --manifest examples/serve/session.json --queries artifacts/SERVE_queries_100k.jsonl --jobs 4 --out artifacts/SERVE_answers_j4.jsonl --evidence-out artifacts/SERVE_evidence_j4.json
	cmp artifacts/SERVE_answers_j1.jsonl artifacts/SERVE_answers_j4.jsonl
	cmp artifacts/SERVE_evidence_j1.json artifacts/SERVE_evidence_j4.json
	grep -q '"schema": "evidence/v1"' artifacts/SERVE_evidence_j1.json
	grep -q '"worldpool.constructed": 3' artifacts/SERVE_metrics.json
	dune exec bin/faultroute.exe -- evidence artifacts/SERVE_evidence_j1.json
	dune exec bin/faultroute.exe -- serve --manifest examples/serve/session.json --queries examples/serve/queries.jsonl --trace artifacts/SERVE_trace.jsonl > /dev/null
	head -1 artifacts/SERVE_trace.jsonl | grep -q '"schema": "trace/v1"'
	dune exec bin/faultroute.exe -- trace artifacts/SERVE_trace.jsonl
	dune exec bin/faultroute.exe -- serve --manifest examples/serve/session.json --queries examples/serve/queries-10k.jsonl --jobs 2 --out artifacts/SERVE_answers_10k.jsonl --evidence-out artifacts/SERVE_evidence_10k.json
	cmp examples/serve/evidence-10k-golden.json artifacts/SERVE_evidence_10k.json
	sha256sum < artifacts/SERVE_answers_10k.jsonl | cmp examples/serve/answers-10k-golden.sha256 -

# Run telemetry end to end. A serve run with the whole reporting layer
# armed (telemetry/v1 heartbeats, profile/v1 spans, metrics/v1,
# trace/v1 query spans, runledger/v1) must keep answer and evidence
# bytes identical to an instrumentation-off run at a different --jobs;
# every emitted artifact must validate through the obs inspector, the
# report must actually show per-domain pool utilization and latency
# quantiles, the trace must replay (probe accounting + query lifecycle
# spans), and `faultroute top --once --replay` must render the final
# heartbeat. Then the audit side: tampering with a ledgered artifact
# must fail `obs validate` with exit 2. Then the renderer: `obs report`
# (including the two-file metrics aggregate), `obs diff` of each pair
# and `obs folded` over the committed artifacts in examples/obs/ (a
# metered, telemetered, profiled `exp E2 --quick --jobs 2` and the
# demo serve session at --jobs 2) must reproduce
# examples/obs/report-golden.txt byte for byte; regenerate it only for
# an intended report change. Then the trace bytes of a budget-capped
# route and a random-walk simulate must match
# examples/obs/{route,simulate}-trace-golden.jsonl, so any change to an
# observed attempt's events moves a byte. Then the cost side:
# instrumenting the hot paths must leave the disabled path alone
# (bench/main.exe: every switch off after each of three instrumented runs
# and the same minor words per kernel run after them, and the median
# of three before/after kernel-time shifts under 8% of the kernel's
# own median time).
OBS_EX = examples/obs
obs-smoke:
	mkdir -p artifacts
	rm -f artifacts/OBS_ledger.jsonl
	dune exec bin/faultroute.exe -- serve --manifest examples/serve/session.json --queries examples/serve/queries-10k.jsonl --jobs 4 --telemetry-out artifacts/OBS_telemetry.jsonl --profile-out artifacts/OBS_profile.json --metrics-out artifacts/OBS_metrics.json --trace artifacts/OBS_trace.jsonl --ledger artifacts/OBS_ledger.jsonl --out artifacts/OBS_answers_on.jsonl --evidence-out artifacts/OBS_evidence_on.json
	dune exec bin/faultroute.exe -- serve --manifest examples/serve/session.json --queries examples/serve/queries-10k.jsonl --jobs 1 --out artifacts/OBS_answers_off.jsonl --evidence-out artifacts/OBS_evidence_off.json
	cmp artifacts/OBS_answers_on.jsonl artifacts/OBS_answers_off.jsonl
	cmp artifacts/OBS_evidence_on.json artifacts/OBS_evidence_off.json
	dune exec bin/faultroute.exe -- obs validate artifacts/OBS_ledger.jsonl artifacts/OBS_telemetry.jsonl artifacts/OBS_profile.json artifacts/OBS_metrics.json artifacts/OBS_trace.jsonl
	dune exec bin/faultroute.exe -- obs report artifacts/OBS_telemetry.jsonl | grep -q 'pool utilization'
	dune exec bin/faultroute.exe -- obs report artifacts/OBS_telemetry.jsonl | grep -q 'p95'
	dune exec bin/faultroute.exe -- obs report artifacts/OBS_profile.json | grep -q 'profile/v1'
	dune exec bin/faultroute.exe -- obs report artifacts/OBS_ledger.jsonl | grep -q 'digests verified'
	dune exec bin/faultroute.exe -- obs report artifacts/OBS_trace.jsonl | grep -q 'query spans'
	dune exec bin/faultroute.exe -- trace artifacts/OBS_trace.jsonl
	dune exec bin/faultroute.exe -- top --once --replay artifacts/OBS_telemetry.jsonl | grep -q 'pool'
	test -n "$$(dune exec bin/faultroute.exe -- obs folded artifacts/OBS_profile.json)"
	echo tamper >> artifacts/OBS_answers_on.jsonl
	dune exec bin/faultroute.exe -- obs validate artifacts/OBS_ledger.jsonl; test $$? -eq 2
	dune build bin/faultroute.exe
	{ ./_build/default/bin/faultroute.exe obs report $(addprefix $(OBS_EX)/,e2-metrics.json e2-telemetry.jsonl e2-profile.json serve-metrics.json serve-telemetry.jsonl serve-profile.json) && \
	  for k in metrics.json telemetry.jsonl profile.json; do ./_build/default/bin/faultroute.exe obs diff $(OBS_EX)/e2-$$k $(OBS_EX)/serve-$$k || exit 1; done && \
	  for k in e2 serve; do ./_build/default/bin/faultroute.exe obs folded $(OBS_EX)/$$k-profile.json || exit 1; done; } > artifacts/OBS_golden.txt
	cmp $(OBS_EX)/report-golden.txt artifacts/OBS_golden.txt
	./_build/default/bin/faultroute.exe route hypercube:6 -p 0.5 --seed 3 --budget 60 --trace artifacts/OBS_route_trace.jsonl > /dev/null
	cmp $(OBS_EX)/route-trace-golden.jsonl artifacts/OBS_route_trace.jsonl
	./_build/default/bin/faultroute.exe simulate hypercube:5 -p 0.8 --seed 1 --protocol walk --trace artifacts/OBS_simulate_trace.jsonl > /dev/null
	cmp $(OBS_EX)/simulate-trace-golden.jsonl artifacts/OBS_simulate_trace.jsonl
	dune exec bench/main.exe

# EXPERIMENTS.md's verdict column, machine-checked: run the quick
# catalog, evaluate every experiment's claims and compare the observed
# values against the committed baseline. Exit 2 = a claim band is
# violated; exit 4 = values drifted while the bands still hold.
check-claims:
	dune exec bin/faultroute.exe -- check --quick

# Rewrite the committed baselines from a fresh run (after an intended
# change to measured values). The full variant takes minutes.
update-baseline:
	dune exec bin/faultroute.exe -- check --quick --update

update-baseline-full:
	dune exec bin/faultroute.exe -- check --update

# Alternating pairs of perfbench runs, the checkout PARENT against this
# tree: N rounds (default 10) of perfbench/run.py at BENCHMARK.json's
# run_seconds, over WORKLOAD or every workload it lists. Prints each
# end-to-end metric's medians, spreads, wins and verdict word, each
# side's failed operations, and one JSON line. About 11 min a workload
# at N=10 on a 2-vCPU host; kept out of ci.
perf-pairs:
	python3 bench/pairs.py perf $(if $(PARENT),--parent "$(PARENT)") $(if $(WORKLOAD),--workload "$(WORKLOAD)") $(if $(N),--n $(N))

# Full-mode wall time and peak RSS, which perfbench does not cover yet:
# full `all --jobs 2`, N rounds (default 3) of this tree and, given
# PARENT=checkout, of that checkout too, both built in release.
# Every run's stdout must cmp equal to the first run's. Kept out of ci
# because each run takes tens of seconds.
full-timing:
	python3 bench/pairs.py full $(if $(PARENT),--parent "$(PARENT)") $(if $(N),--n $(N))

# Every leg .github/workflows/ci.yml runs, in its order.
ci: build test smoke chaos-smoke churn-smoke serve-smoke obs-smoke check-claims bench-smoke

clean:
	dune clean
	rm -rf artifacts
