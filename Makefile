GO ?= go
# The command the smoke targets run; `make reach` points it at the cover build.
STTCP ?= $(GO) run ./cmd/sttcp

.PHONY: all check vet lint build test race fuzz-heap fuzz-decode fuzz-window bench observers loc flags settings doc-bytes allows timeline chaos chaos-gray chaos-smoke chaos-gray-smoke explore explore-smoke race-smoke reach reach-build reach-check clean

all: check

# The full gate: static analysis, compile everything, then the test suite
# under the race detector.
check: vet lint build race

vet:
	$(GO) vet ./...

# Domain-specific static analysis: determinism (wall clock, randomness,
# goroutines, map-ordered output), discarded harness errors, the structural
# rules (one place performs faults, one run loop, one judge, one clock, one
# window, one artifact holder) and the //sttcp:allow audit (see DESIGN.md
# §10).
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

# Twenty seconds of fuzzing the event queue against its sorted-slice
# reference (FuzzHeapOps): its pop order, the same whichever of its two
# heaps an event sits in, is what keeps every golden identical. CI runs it.
fuzz-heap:
	$(GO) test -run '^$$' -fuzz '^FuzzHeapOps$$' -fuzztime 20s ./internal/sim

# Twenty seconds each of fuzzing the decoders a stack uses on bytes its NIC
# has found intact (FuzzParse in ip, udp and tcp): Parse must never panic,
# and must return what the verifying Decode does wherever Decode accepts.
# And of the sealer and the checker of a frame's sums (FuzzSeal): ip.Seal
# must never panic, must write only sums the full decoders accept, and must
# turn a packet a stack wrote into the full encoders' bytes; ip.Verify, the
# receiving NIC's check, must accept exactly what the full decoders do.
# CI runs it.
fuzz-decode:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 20s ./internal/ip
	$(GO) test -run '^$$' -fuzz '^FuzzSeal$$' -fuzztime 20s ./internal/ip
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 20s ./internal/udp
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 20s ./internal/tcp

# Twenty seconds of fuzzing tcp.Window (FuzzWindowScript): arbitrary
# write/release/slice scripts against the copy-down reference model, once
# on a window that copies into its ring and once on one that reads its
# bytes from a source (Conn.WriteFrom). CI runs it.
fuzz-window:
	$(GO) test -run '^$$' -fuzz '^FuzzWindowScript$$' -fuzztime 20s ./internal/tcp

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

# How many audited //sttcp:allow exceptions each analyzer carries: the
# directive table `sttcp vet` suppresses with, counted and pinned by
# TestRepoLintsClean in internal/analysis, as `make flags` is by its test.
# CI prints it beside `make loc`.
allows:
	@out=$$($(GO) test ./internal/analysis -run '^TestRepoLintsClean$$' -count=1 -v); st=$$?; \
	  printf '%s\n' "$$out" | sed -n 's/^ *lint_test\.go:[0-9]*: //p'; exit $$st

# Render the Demo 1 failover anatomy: phase report plus ASCII span timeline.
# The same view ships as a golden (internal/scenario/testdata/golden); after
# an intentional protocol change regenerate with
#   go test ./internal/scenario -run Golden -update
#   go test ./internal/scenario -run TimelineGolden -update
timeline:
	$(GO) run ./cmd/sttcp demo -demo demo1 -timeline

# Randomized fault-injection campaign: 200 seeded plans judged by the
# system-wide invariant registry (see EXPERIMENTS.md "Chaos campaigns").
chaos:
	$(GO) run ./cmd/sttcp chaos -runs 200

# Gray-failure campaign: every plan carries at least one slow-not-dead,
# asymmetric-partition, corruption, flapping, or clock-skew fault, judged
# by the registry's gray verdicts on top of the crisp ones (see
# EXPERIMENTS.md "Gray failures").
chaos-gray:
	$(GO) run ./cmd/sttcp chaos -gray -runs 200

# CI-sized campaign, stated in seeds so every machine checks the same
# plans (seeds 1-4,500; ~30 s on a 2-core machine), its summary diffed
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

# CI-sized exploration: both closable windows EXPERIMENTS quotes must close
# (-max-runs bounds them on any machine, after the same run); ~1 s together.
explore-smoke:
	$(STTCP) explore -seed 7 -fault-span 4ms -grace 10ms -fault-points 2 -require-closed
	$(STTCP) explore -seed 7 -fault-span 10ms -grace 50ms -fault-points 3 -require-closed

# The race build's proofs over the campaigns: in a -race build of sttcp every
# frame is sealed as it is sent, every check an intact verdict skips is run
# anyway (a wrong verdict panics), released frames are poisoned and a sourced
# span is read twice. It runs seeds 1-600 of each chaos campaign, and each
# summary must equal the plain build's; both explore-smoke windows must
# close. ~2.5 min on a 2-core machine. CI runs it.
RACE_DIR := .race

race-smoke:
	rm -rf $(RACE_DIR) && mkdir -p $(RACE_DIR)
	$(GO) build -race -o $(RACE_DIR)/sttcp-race ./cmd/sttcp
	$(GO) build -o $(RACE_DIR)/sttcp ./cmd/sttcp
	$(RACE_DIR)/sttcp-race chaos -runs 600 > $(RACE_DIR)/chaos.stdout
	$(RACE_DIR)/sttcp chaos -runs 600 | diff $(RACE_DIR)/chaos.stdout -
	$(RACE_DIR)/sttcp-race chaos -gray -runs 600 > $(RACE_DIR)/chaos-gray.stdout
	$(RACE_DIR)/sttcp chaos -gray -runs 600 | diff $(RACE_DIR)/chaos-gray.stdout -
	@$(MAKE) --no-print-directory explore-smoke STTCP=$(RACE_DIR)/sttcp-race

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
