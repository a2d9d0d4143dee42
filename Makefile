# Tier-1 verification targets. `make check` is what CI (and any PR) should
# run: build, vet, the full test suite, a race-detector pass over the
# packages with real concurrency (the parallel campaign pool and the tables
# its workers share), ten seconds of each fuzz target, and the HA, admission
# and 500-node smokes.

GO ?= go

.PHONY: check ci build vet test race race-all fuzz-smoke smoke docs-lint outcomes-cmp findings-full loc

check: build vet test race fuzz-smoke smoke docs-lint

# Full CI gate (also run by .github/workflows/ci.yml): build, vet, the whole
# test suite under the race detector, and the docs lint.
ci: build vet race-all docs-lint

race-all:
	$(GO) test -race ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Every package with state that campaign workers reach concurrently: cow is
# the one shared table (its test inserts overlapping keys from 8 goroutines),
# codec and spec are its three clients (string, storage-key and label-map
# interning), campaign is the worker engine and the mutex-guarded snapshot
# cache (TestCampaignParallelismIsDeterministic, TestRunnerConcurrentUse,
# TestSnapshotCacheConcurrentRunners, TestClearSnapshotCacheRacesActiveForks),
# and apiserver adds the decode-cache tests: sealed entries, and the stored
# arrays a status splice copies from, cross the same shared read paths.
race:
	$(GO) test -race ./internal/campaign/... ./internal/codec/... ./internal/apiserver/... ./internal/spec/... ./internal/cow/...

# Ten seconds of each of the tree's eight fuzz targets. FuzzLoopOrder: random
# At/After/Every/Stop/Reset programs on the event loop, held to a slice sorted
# by (at, seq). FuzzSchedulerRetry: random programs of cluster operations
# (creates, deletes, resizes, cordons, heartbeats, at-rest rewrites, lost and
# refused binds, a cache-mismatch restart) against the leader-elected
# scheduler, every cycle held to a pass over all pending pods that remembers
# nothing. FuzzUnmarshal: arbitrary bytes into every resource kind, never a
# panic, and whatever decodes re-encodes to a fixpoint.
# FuzzAppendPrefixWithRV: the status-splice RV patch against its reference
# implementation on any bytes and revision. FuzzShardResultJSON: arbitrary
# bytes into the shard wire's result decoder, never a panic, and whatever
# decodes survives a Marshal/Unmarshal round trip. FuzzInjectionTarget:
# arbitrary timed faults (any axis, Replica, Policy, After and Heal) on
# platforms of random replica, hook and zone counts, never a panic, never a
# target out of range, and a healed fault leaves the platform healthy.
# FuzzRequestPath: random programs of pod, node, config, service, endpoints and
# topology events, time steps, rewinds and request bursts, the data plane held
# to its map-per-fact reference answer for answer and draw for draw.
# FuzzDaemonSetGrouping: random clusters of nodes (duplicate names, ineligible
# and tainted) and pods (on absent nodes, foreign, mislabeled, finished) changed
# between syncs, the DaemonSet sync held to its map-based reference write for
# write and in its status counts. A failing input is written to the package's testdata/fuzz and fails `go test` from then
# on; commit it with the fix.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzLoopOrder -fuzztime 10s ./internal/sim
	$(GO) test -run xxx -fuzz FuzzSchedulerRetry -fuzztime 10s ./internal/scheduler
	$(GO) test -run xxx -fuzz FuzzUnmarshal -fuzztime 10s ./internal/codec
	$(GO) test -run xxx -fuzz FuzzAppendPrefixWithRV -fuzztime 10s ./internal/codec
	$(GO) test -run xxx -fuzz FuzzShardResultJSON -fuzztime 10s ./internal/campaign
	$(GO) test -run xxx -fuzz FuzzInjectionTarget -fuzztime 10s ./internal/inject
	$(GO) test -run xxx -fuzz FuzzRequestPath -fuzztime 10s ./internal/netsim
	$(GO) test -run xxx -fuzz FuzzDaemonSetGrouping -fuzztime 10s ./internal/controller

# The three platform smokes: a three-replica control plane riding out an
# apiserver crash and a healed master partition while the workload completes
# on the survivors; a three-hook admission chain riding out a webhook backend
# crash under both failure policies, measuring the fail-closed outage against
# the fail-open enforcement loss; and a three-zone 500-node cloud-edge cluster
# bootstrapping inside a wall/alloc budget and riding out an edge-zone
# partition. Campaigns end to end run in `go run ./bench` and in
# internal/report's TestPaperFindingsHold.
smoke:
	$(GO) test -run TestHAControlPlaneSmoke -count=1 .
	$(GO) test -run TestAdmissionSmoke -count=1 .
	$(GO) test -run TestScale500Smoke -count=1 .

# Docs lint: every Go file gofmt-clean, and every local link in README.md /
# ARCHITECTURE.md resolving to a file or directory that actually exists
# (anchors and external URLs are skipped).
docs-lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	@fail=0; \
	for f in README.md ARCHITECTURE.md; do \
		for link in $$(grep -oE '\]\([^)#]+\)?' $$f | sed -e 's/^](//' -e 's/)$$//' | grep -v '^http'); do \
			if [ ! -e "$$link" ]; then echo "$$f: broken link: $$link"; fail=1; fi; \
		done; \
	done; \
	[ $$fail -eq 0 ] && echo "docs-lint OK"

# Outcome neutrality against another revision: `make outcomes-cmp PARENT=HEAD~1`
# builds mutiny-campaign from PARENT (a `git archive` of it, unpacked in a
# temporary directory that is removed afterwards) and from the working tree,
# runs both with -quiet on the six argument sets below — shared-bootstrap and
# replay regimes, zoned, HA, admission, and HA with admission — and fails on the
# first stdout that differs by a byte. For any change that must not move an
# outcome: a read path, an index, a cache, a delivery path. Under a minute.
OUTCOME_ARGS = \
	"-stride 10 -golden 10 -share-bootstrap" \
	"-stride 25 -golden 8" \
	"-stride 60 -golden 8 -share-bootstrap -zones 3 -nodes 12" \
	"-stride 60 -golden 8 -share-bootstrap -control-plane-replicas 3" \
	"-stride 60 -golden 8 -share-bootstrap -admission-hooks 3" \
	"-stride 40 -golden 8 -control-plane-replicas 3 -admission-hooks 3"

outcomes-cmp:
	@test -n "$(PARENT)" || { echo "usage: make outcomes-cmp PARENT=<rev>"; exit 2; }
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && mkdir "$$tmp/parent" && \
	git archive "$(PARENT)" | tar -x -C "$$tmp/parent" && \
	(cd "$$tmp/parent" && $(GO) build -o "$$tmp/campaign.parent" ./cmd/mutiny-campaign) && \
	$(GO) build -o "$$tmp/campaign.new" ./cmd/mutiny-campaign && \
	for args in $(OUTCOME_ARGS); do \
		"$$tmp/campaign.parent" -quiet $$args > "$$tmp/parent.out" && \
		"$$tmp/campaign.new" -quiet $$args > "$$tmp/new.out" && \
		cmp "$$tmp/parent.out" "$$tmp/new.out" && echo "same: $$args" || \
		{ echo "outcomes differ from $(PARENT): $$args"; exit 1; }; \
	done

# The findings oracle over the full campaign: TestPaperFindingsHold runs every
# generated experiment (stride 1) instead of tier-1's stride of 2, against the
# same committed shares and bands in internal/report/testdata/findings.golden.
# About twice the tier-1 run.
findings-full:
	$(GO) test -run TestPaperFindingsHold -count=1 ./internal/report -findings-full

# Non-test Go lines, blank lines and whole-line // comments not counted: the
# figures ROADMAP and CHANGES quote for internal/ plus the root package, for
# the command-line tools under cmd/, for bench/, and for the four packages of
# the apiserver→store path.
loc:
	@count() { find "$$@" -name '*.go' ! -name '*_test.go' -exec cat {} + | grep -Ev '^[[:space:]]*(//|$$)' | wc -l; }; \
	echo "internal/ + root:           $$(( $$(count internal) + $$(count . -maxdepth 1) ))"; \
	echo "cmd/:                       $$(count cmd)"; \
	echo "bench/:                     $$(count bench)"; \
	echo "apiserver+codec+spec+store: $$(count internal/apiserver internal/codec internal/spec internal/store)"

# Performance is measured by the repository benchmark, `go run ./bench` (see
# bench/README.md and BENCHMARK.json), not by a make target. Package
# benchmarks run as plain Go benchmarks, e.g.
# `go test -run xxx -bench BenchmarkCodec -benchmem ./internal/codec`; lock
# contention on the parallel campaign path is Go's standard profiling flags,
# `go test -mutexprofile m.out -blockprofile b.out ./internal/campaign`.
