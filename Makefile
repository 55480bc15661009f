GO ?= go
# The command the smoke targets run; `make reach` points it at the cover build.
STTCP ?= $(GO) run ./cmd/sttcp

.PHONY: all check vet lint build test race bench observers loc flags settings doc-bytes allows faults-one-place artifacts-one-place one-window one-run one-judge one-clock timeline chaos chaos-gray chaos-smoke chaos-gray-smoke explore explore-smoke reach reach-build reach-check clean

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

# One judge: the invariant registry (internal/experiment/invariants.go)
# decides what a correct run is, and Plan.Run applies it to every plan, so
# no runner keeps a check of its own. Outside that file no non-test file
# constructs a Violation{ — but chaos's invariants.go, for the three
# predicates that read its injection records, and the explorer's
# scheduler-order — and the per-runner checks it replaced
# (Testbed.FailureFree, Run.completed) are gone, tests included. A grep in
# the idiom of one-run; CI runs it beside it.
one-judge:
	@! grep -rnE 'Violation\{' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build . \
	  | grep -vE '^\./internal/(experiment|chaos)/invariants\.go:|^\./internal/explore/explore\.go:' \
	  || { echo "one-judge: a violation is constructed outside the invariant registry (lines above); register the invariant in internal/experiment/invariants.go"; exit 1; }
	@! grep -rnE '\bFailureFree\(|\) completed\(' --include='*.go' --exclude-dir=.bench_build . \
	  || { echo "one-judge: a per-runner check is back (lines above); Plan.Run judges every run"; exit 1; }

# One clock: every timer and post a host's software arms belongs to the
# host's sim.Clock, which a crash stops (cluster.Host), so a dead host runs
# nothing. No non-test file of the host software — TCP, the netstack, the
# heartbeat exchanger, the ST-TCP node and the application server — arms a
# timer on the raw simulator. A grep in the idiom of one-judge; CI runs it
# beside it.
one-clock:
	@! grep -rnE '\.sim\.(Schedule|At|NewTimer|Post)\(|sim\.NewTicker\(' --include='*.go' --exclude='*_test.go' \
	    internal/tcp internal/netstack internal/hb internal/sttcp internal/app/server.go \
	  || { echo "one-clock: host software arms a timer on the raw simulator (lines above); arm it on the host's sim.Clock"; exit 1; }

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
# against the committed one, and its -gray twin the same way. A local soak
# is a bigger -runs from another -seed, never a number of seconds.
chaos-smoke:
	$(STTCP) chaos -runs 4500 | diff internal/chaos/testdata/chaos-runs-4500.stdout -

chaos-gray-smoke:
	$(STTCP) chaos -gray -runs 4500 | diff internal/chaos/testdata/chaos-gray-runs-4500.stdout -

# Exhaustive-interleaving exploration of a bounded failover window: every
# tie-break order and fault placement, judged by the invariant registry
# (see EXPERIMENTS.md "Exhaustive exploration"). This window fully closes.
explore:
	$(GO) run ./cmd/sttcp explore -seed 7 -fault-span 4ms -grace 10ms -fault-points 2

# CI-sized exploration: the closable window must close (-max-runs bounds it
# on any machine, after the same run).
explore-smoke:
	$(STTCP) explore -seed 7 -fault-span 4ms -grace 10ms -fault-points 2 -require-closed

# What code the shipped runs execute (ROADMAP item 21). One cover build of
# sttcp runs the shipped set: both smoke campaigns and explore-smoke, then
# (reach-check) every command EXPERIMENTS.md quotes, read from its markers,
# every scenario through lab, one report with its trace exports, and vet.
# reach-check lists the functions none of them executed, by file and name,
# and diffs that list against cmd/sttcp/testdata/unreached.txt, where each
# line is `file function — reason`: a new unreached function fails, and so
# does a listed one that is now reached. CI runs its campaign steps through
# the same binary with GOCOVERDIR set, then reach-check. ~3 min.
REACH_DIR := .reach
REACH_BIN := $(REACH_DIR)/sttcp
GOCOVERDIR_REACH := $(CURDIR)/$(REACH_DIR)/cover

reach: reach-build
	GOCOVERDIR=$(GOCOVERDIR_REACH) $(MAKE) --no-print-directory chaos-smoke chaos-gray-smoke explore-smoke STTCP=$(REACH_BIN)
	@$(MAKE) --no-print-directory reach-check

reach-build:
	rm -rf $(REACH_DIR) && mkdir -p $(GOCOVERDIR_REACH)
	$(GO) build -cover -coverpkg=./... -o $(REACH_BIN) ./cmd/sttcp

reach-check:
	@export GOCOVERDIR=$(GOCOVERDIR_REACH); set -e; \
	  sed -n 's/^<!-- sttcp \(.*\) -->$$/\1/p' EXPERIMENTS.md | while read -r cmd; do \
	    echo "reach: sttcp $$cmd"; $(REACH_BIN) $$cmd >/dev/null; done; \
	  for s in scenarios/*.sttcp; do echo "reach: sttcp lab $$s"; $(REACH_BIN) lab $$s >/dev/null; done; \
	  $(REACH_BIN) demo -demo demo1 -trace -trace-out $(REACH_DIR)/trace.json -report-out $(REACH_DIR)/report.json >/dev/null; \
	  $(REACH_BIN) report $(REACH_DIR)/report.json >/dev/null; \
	  $(REACH_BIN) vet ./...
	@$(GO) tool covdata func -i=$(GOCOVERDIR_REACH) \
	  | awk '$$NF == "0.0%" { f = $$1; sub(/:[0-9]+:$$/, "", f); sub(/^repro\//, "", f); print f, $$2 }' | sort > $(REACH_DIR)/unreached
	@! grep -vnE '^(#|$$|[^ ]+ [^ ]+ — .+)' cmd/sttcp/testdata/unreached.txt \
	  || { echo "reach: the lines above are not \`file function — reason\`"; exit 1; }
	@grep -vE '^(#|$$)' cmd/sttcp/testdata/unreached.txt | sed 's/ — .*//' | sort | diff - $(REACH_DIR)/unreached \
	  || { echo "reach: '>' is a function no shipped run executes (give it a run, delete it, or list it with a reason); '<' is listed but now reached (take it off cmd/sttcp/testdata/unreached.txt)"; exit 1; }
	@echo "reach: $$(grep -cvE '^(#|$$)' cmd/sttcp/testdata/unreached.txt) functions unreached, each listed with its reason"

clean:
	$(GO) clean ./...
