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
# arrays a status splice copies from, cross the same shared read paths; and
# TestControlPlaneRestoreIsWhole, which restores one control-plane snapshot
# into two planes on two goroutines, as forks on campaign workers do: a
# Restore that wrote its snapshot would race there.
race:
	$(GO) test -race ./internal/campaign/... ./internal/codec/... ./internal/apiserver/... ./internal/spec/... ./internal/cow/...

# Ten seconds of each fuzz target in the tree: every package's ^Fuzz
# functions, as `go test -list` finds them, one after another. What each
# target holds to what is written in its doc comment. A failing input is
# written to the package's testdata/fuzz and fails `go test` from then on;
# commit it with the fix.
fuzz-smoke:
	@for pkg in $$($(GO) list ./...); do \
		targets=$$($(GO) test -list '^Fuzz' $$pkg) || exit 1; \
		for fn in $$(echo "$$targets" | grep '^Fuzz'); do \
			echo "$$fn $$pkg"; \
			$(GO) test -run xxx -fuzz "^$$fn$$" -fuzztime 10s $$pkg || exit 1; \
		done; \
	done

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
# builds mutiny-campaign and mutiny-cluster from PARENT (a `git archive` of it,
# unpacked in a temporary directory that is removed afterwards) and from the
# working tree, runs both campaigns with -quiet on each of the seven argument
# sets below — shared-bootstrap and replay regimes, zoned, HA, admission, HA
# with admission, and every other cluster flag (fail-closed hooks, an explicit
# edge zone) — and both clusters on each of the three workload sets after them
# (the driver's writes, the kubelets' node status and the controllers' pods
# show in those streams), and prints one line per set: `same: <args>` when the
# two stdouts are byte-identical, `moved: <args> (<n> of <m> lines differ)`
# when they are not, and `failed: <args>` when either run exits non-zero; a
# cluster set's args start with `mutiny-cluster`. It exits non-zero after the
# last set if any set moved or failed. For any change that must not move an
# outcome: a read path, an index, a cache, a delivery path. Under a minute.
OUTCOME_ARGS = \
	"-stride 10 -golden 10 -share-bootstrap" \
	"-stride 25 -golden 8" \
	"-stride 60 -golden 8 -share-bootstrap -zones 3 -nodes 12" \
	"-stride 60 -golden 8 -share-bootstrap -control-plane-replicas 3" \
	"-stride 60 -golden 8 -share-bootstrap -admission-hooks 3" \
	"-stride 40 -golden 8 -control-plane-replicas 3 -admission-hooks 3" \
	"-stride 60 -golden 8 -share-bootstrap -admission-hooks 2 -failure-policy Fail -zones 3 -nodes 9 -edge-nodes 2"
CLUSTER_ARGS = \
	"-workload deploy" \
	"-workload scale" \
	"-workload failover -seed 3"

outcomes-cmp:
	@test -n "$(PARENT)" || { echo "usage: make outcomes-cmp PARENT=<rev>"; exit 2; }
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && mkdir "$$tmp/parent" "$$tmp/bin.parent" "$$tmp/bin.new" && \
	git archive "$(PARENT)" | tar -x -C "$$tmp/parent" && \
	(cd "$$tmp/parent" && $(GO) build -o "$$tmp/bin.parent/" ./cmd/mutiny-campaign ./cmd/mutiny-cluster) && \
	$(GO) build -o "$$tmp/bin.new/" ./cmd/mutiny-campaign ./cmd/mutiny-cluster || exit 1; \
	bad=0; sets=0; \
	compare() { \
		label=$$1; tool=$$2; shift 2; \
		if ! "$$tmp/bin.parent/$$tool" "$$@" > "$$tmp/parent.out" || \
			! "$$tmp/bin.new/$$tool" "$$@" > "$$tmp/new.out"; then \
			echo "failed: $$label"; bad=$$((bad + 1)); \
		elif cmp -s "$$tmp/parent.out" "$$tmp/new.out"; then \
			echo "same: $$label"; \
		else \
			d=$$(diff "$$tmp/parent.out" "$$tmp/new.out" | awk '/^</ { p++ } /^>/ { n++ } END { print (p > n ? p : n) }'); \
			m=$$(wc -l < "$$tmp/parent.out"); k=$$(wc -l < "$$tmp/new.out"); [ $$k -le $$m ] || m=$$k; \
			echo "moved: $$label ($$d of $$m lines differ)"; bad=$$((bad + 1)); \
		fi; \
		sets=$$((sets + 1)); \
	}; \
	for args in $(OUTCOME_ARGS); do compare "$$args" mutiny-campaign -quiet $$args; done; \
	for args in $(CLUSTER_ARGS); do compare "mutiny-cluster $$args" mutiny-cluster $$args; done; \
	[ $$bad -eq 0 ] || { echo "$$bad of $$sets argument sets moved or failed against $(PARENT)"; exit 1; }

# The findings oracle over the full campaign: TestPaperFindingsHold runs every
# generated experiment (stride 1) instead of tier-1's stride of 2, against the
# same committed shares and bands in internal/report/testdata/findings.golden.
# About twice the tier-1 run.
findings-full:
	$(GO) test -run TestPaperFindingsHold -count=1 ./internal/report -findings-full

# Non-test Go lines, blank lines and whole-line // comments not counted: the
# figures ROADMAP and CHANGES quote for internal/ plus the root package, for
# the command-line tools under cmd/, for bench/, for the four packages of the
# apiserver→store path, with and without the store's election
# (internal/store/raft.go), and for each internal/ package.
loc:
	@count() { find "$$@" -name '*.go' ! -name '*_test.go' -exec cat {} + | grep -Ev '^[[:space:]]*(//|$$)' | wc -l; }; \
	core="internal/apiserver internal/codec internal/spec internal/store"; \
	echo "internal/ + root:           $$(( $$(count internal) + $$(count . -maxdepth 1) ))"; \
	echo "cmd/:                       $$(count cmd)"; \
	echo "bench/:                     $$(count bench)"; \
	echo "apiserver+codec+spec+store: $$(count $$core)"; \
	echo "  without store/raft.go:    $$(count $$core ! -path internal/store/raft.go)"; \
	for pkg in internal/*/; do printf '  %-26s%s\n' "$${pkg%/}:" "$$(count $$pkg)"; done

# Performance is measured by the repository benchmark, `go run ./bench` (see
# bench/README.md and BENCHMARK.json), not by a make target. Package
# benchmarks run as plain Go benchmarks, e.g.
# `go test -run xxx -bench BenchmarkCodec -benchmem ./internal/codec`; lock
# contention on the parallel campaign path is Go's standard profiling flags,
# `go test -mutexprofile m.out -blockprofile b.out ./internal/campaign`.
