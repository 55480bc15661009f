GO ?= go

.PHONY: all check vet lint build test race bench observers loc flags settings doc-bytes allows faults-one-place artifacts-one-place one-window one-run timeline chaos chaos-gray chaos-smoke explore explore-smoke clean

all: check

# The full gate: static analysis, compile everything, then the test suite
# under the race detector.
check: vet lint build race

vet:
	$(GO) vet ./...

# Domain-specific static analysis: determinism (wall clock, randomness,
# goroutines, map-ordered output), hot-path allocation discipline, discarded
# harness errors, and the //sttcp:allow audit (see DESIGN.md §10).
lint:
	$(GO) run ./cmd/sttcp vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The simulator is single-threaded, but the race build also runs ~10x
# slower, so give the long experiment suites room.
race:
	$(GO) test -race -timeout 30m ./...

# One iteration of every go-test benchmark: the in-package micro-benchmarks
# of the layers a download's host time is spent in. A smoke (CI runs it) —
# they must keep compiling and running; for figures use a real -benchtime,
# `go run ./benchmark` for the repository's benchmark, and `sttcp demo` for
# the paper's experiments.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./internal/sim ./internal/netem ./internal/hb ./internal/tcp ./internal/app ./internal/sttcp

# The observers' block of the benchmark's traced ladder on the smallest-packet
# workload: how many events the always-on trace holds for a whole echo run
# (trace.events — milestones, so tens, whatever the round count), how many
# instruments and telemetry windows ride along, and what one emit, one counter
# increment, detail and telemetry cost. Reads only; CI prints it after the
# benchmark's correctness run so the trend is in every log beside `make loc`.
observers:
	$(GO) run ./benchmark -workload echo -traced -reps 1 | grep -E '^(trace|metrics|telemetry)\.'

# Non-test Go lines per package (outside benchmark/ and testdata/): the
# instrument every ROADMAP "quality of design" figure is read from,
# reproducibly. CI prints it after the build so the
# trend is in every log.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path '*/testdata/*' -not -path './.bench_build/*' \
	  | xargs wc -l | awk '$$2 != "total" { d = $$2; sub("^\\./", "", d); sub("/?[^/]*$$", "", d); if (d == "") d = "."; n[d] += $$1; t += $$1 } \
	      END { for (d in n) printf "%7d  %s\n", n[d], d; printf "%7d  total\n", t }' | sort -k2

# How many command-line flags the one binary registers: every fs.Bool /
# fs.IntVar / fs.Func / ... call under cmd/ (the shared ones in
# cmd/internal/cliflags count once). An option is a configuration tests must
# cover, so the count should only fall. Counted and pinned by
# TestFlagRegistrations in cmd/sttcp, as `make settings` is by its test; CI
# prints it beside `make loc`.
flags:
	@out=$$($(GO) test ./cmd/sttcp -run '^TestFlagRegistrations$$' -count=1 -v); st=$$?; \
	  printf '%s\n' "$$out" | sed -n 's/^ *settings_test\.go:[0-9]*: //p'; exit $$st

# How many settable values each config struct a caller fills has (exported
# fields; a nested config struct counts by its fields), and their total: the
# library's options, as `make flags` counts the command line's. Read off the
# types by TestSettableFields in cmd/sttcp, which pins each count; CI prints
# it beside `make flags`.
settings:
	@out=$$($(GO) test ./cmd/sttcp -run '^TestSettableFields$$' -count=1 -v); st=$$?; \
	  printf '%s\n' "$$out" | sed -n 's/^ *settings_test\.go:[0-9]*: //p'; exit $$st

# Bytes of the three documents ROADMAP item 3 budgets (EXPERIMENTS quotes
# its figures from `sttcp demo` under a test; the rest is prose). CI prints it
# beside `make loc`.
doc-bytes:
	@wc -c README.md DESIGN.md EXPERIMENTS.md

# Which analyzers carry audited exceptions, and how many: every
# //sttcp:allow directive in the code `sttcp vet` loads (non-test Go; the
# analysis package's own docs and corpora excluded), counted per analyzer
# list. A line whose directive sits behind an earlier `//` is a doc-comment
# example, not a directive. Like faults-one-place a grep, not an analyzer;
# CI prints it next to `make loc`.
allows:
	@grep -rhE '^([^/]|/[^/])*//sttcp:allow ' --include='*.go' --exclude='*_test.go' \
	    --exclude-dir=analysis --exclude-dir=testdata --exclude-dir=.bench_build . \
	  | grep -o '//sttcp:allow [a-z,]*' | sort | uniq -c

# One fault vocabulary: the substrate packages implement the mechanisms
# (netem, serial, cluster, app), internal/experiment/testbed.go performs
# them as experiment.Fault, and nobody else — demos, Table 1, lab, chaos,
# examples — breaks the world behind its back (benchmark/ crashes its
# primary directly, by design). A grep, not an analyzer: the names are few
# and distinctive. CI runs it next to `make loc`.
faults-one-place:
	@! grep -rnE '\.(CrashHW|FailNIC|DropFromBFor|SetLossRate|SetExtraDelay|SetCutFrom[AB]|SetCorruptRate|SetCPUScale|SetTimerScale|CrashSilent|CrashCleanup)\b|SetDown\(true\)' \
	    --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark --exclude-dir=.bench_build . \
	  | grep -vE '^\./internal/(netem|serial|cluster|app)/|^\./internal/experiment/testbed\.go:' \
	  || { echo "faults-one-place: a fault is performed outside experiment.Testbed (lines above)"; exit 1; }

# One place a run's artifacts live: the finished experiment.Testbed. A run
# is the result (experiment.Run) and what a demo prints is a value
# projection of it, so no struct under internal/experiment but Testbed
# (testbed.go) declares a *trace.Recorder, *metrics.Snapshot or
# *telemetry.Timeline field — the per-result-type plumbing (twenty such
# lines before PR 23) cannot quietly grow back. A grep in the idiom of
# faults-one-place; CI runs it beside it.
artifacts-one-place:
	@! grep -nE '^[[:space:]]+[A-Za-z_][A-Za-z0-9_, ]*[[:space:]]+\*(trace\.Recorder|metrics\.Snapshot|telemetry\.Timeline)\b' \
	    $$(ls internal/experiment/*.go | grep -vE '_test\.go$$|/testbed\.go$$') \
	  || { echo "artifacts-one-place: a result type carries a recorder, snapshot or timeline (lines above); read it off the run's Testbed"; exit 1; }

# One stream window and one reassembler: every store of stream bytes between
# the wire and the application (send and receive buffers, the logger's log)
# is a tcp.Window and every out-of-order queue a tcp.Reassembler, so
# insertOOO and drainOOO are each defined once under internal/, and no
# non-test file of internal/tcp or internal/sttcp holds the idiom the ring
# replaced — a buffer copying itself down, copy(x, x[n:]). The primary keeps
# the client bytes the backup has not reported in its receive buffer
# (tcp.Conn.Hold), not a second store: outside tests, internal/sttcp builds a
# tcp.NewWindow only in logger.go. A grep in the idiom of faults-one-place;
# CI runs it beside it.
one-window:
	@for f in insertOOO drainOOO; do \
	  n=$$(grep -rhE "^func .*$$f\(" --include='*.go' internal | wc -l); \
	  [ "$$n" -eq 1 ] || { echo "one-window: $$f is defined $$n times under internal/, want once (tcp.Reassembler)"; exit 1; }; \
	done
	@! grep -rnE 'copy\(([A-Za-z_][A-Za-z0-9_.]*), \1\[' --include='*.go' --exclude='*_test.go' internal/tcp internal/sttcp \
	  || { echo "one-window: a buffer copies itself down (lines above); hold the bytes in a tcp.Window and Release them"; exit 1; }
	@! grep -rn 'tcp\.NewWindow' --include='*.go' --exclude='*_test.go' --exclude='logger.go' internal/sttcp \
	  || { echo "one-window: a second store of client bytes on the primary (lines above); hold them in the receive buffer (tcp.Conn.Hold)"; exit 1; }

# One run loop: experiment.Plan.Run (plan.go) is the only code that builds
# a testbed; every runner, the quickstart example, a lab script and a chaos
# schedule is a Plan, plain-TCP twins included (Plan.Plain). Outside
# benchmark/ and tests, Build( and StartSTTCP( appear only in plan.go. A
# grep in the idiom of faults-one-place; CI runs it beside it.
one-run:
	@! grep -rnE '((^|[^.[:alnum:]_])|experiment\.)Build\(|StartSTTCP\(' --include='*.go' --exclude='*_test.go' \
	    --exclude-dir=benchmark --exclude-dir=.bench_build . \
	  | grep -vE ':[0-9]+:func |^\./internal/experiment/plan\.go:' \
	  || { echo "one-run: a testbed is built or started outside experiment.Plan.Run (lines above); compile the run to a Plan"; exit 1; }

# Render the Demo 1 failover anatomy: phase report plus ASCII span timeline.
# The same view ships as a golden (internal/scenario/testdata/golden); after
# an intentional protocol change regenerate with
#   go test ./internal/scenario -run Golden -update
#   go test ./internal/scenario -run TimelineGolden -update
timeline:
	$(GO) run ./cmd/sttcp demo -demo demo1 -timeline

# Randomized fault-injection campaign: 200 seeded schedules judged by the
# system-wide invariant registry (see EXPERIMENTS.md "Chaos campaigns").
chaos:
	$(GO) run ./cmd/sttcp chaos -runs 200

# Gray-failure campaign: every schedule carries at least one slow-not-dead,
# asymmetric-partition, corruption, flapping, or clock-skew fault, judged
# by the gray invariants on top of the crisp ones (see EXPERIMENTS.md
# "Gray failures").
chaos-gray:
	$(GO) run ./cmd/sttcp chaos -gray -runs 200

# CI-sized campaign, stated in seeds so every machine checks the same
# schedules (seeds 1-4,500; ~30 s on a 2-core machine), its summary diffed
# against the committed one (CI diffs the -gray twin the same way). A local
# soak is a bigger -runs from another -seed, never a number of seconds.
chaos-smoke:
	$(GO) run ./cmd/sttcp chaos -runs 4500 | diff internal/chaos/testdata/chaos-runs-4500.stdout -

# Exhaustive-interleaving exploration of a bounded failover window: every
# tie-break order and fault placement, judged by the invariant registry
# (see EXPERIMENTS.md "Exhaustive exploration"). This window fully closes.
explore:
	$(GO) run ./cmd/sttcp explore -seed 7 -fault-span 4ms -grace 10ms -fault-points 2

# CI-sized exploration: the closable window must close (-max-runs bounds it
# on any machine, after the same run).
explore-smoke:
	$(GO) run ./cmd/sttcp explore -seed 7 -fault-span 4ms -grace 10ms -fault-points 2 -require-closed

clean:
	$(GO) clean ./...
