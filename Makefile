# Development targets; `make check` is what CI runs.

GO ?= go

.PHONY: all build test test-short bench bench-smoke bench-counts serve-smoke snapshot-smoke shard-smoke replica-smoke cache-smoke chaos-smoke fmt fmt-fix vet size loc race-accounting race-batch nearest-equiv check docs-check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# bench runs the repository benchmark (bench/README.md): five workloads
# end to end, then the traced pass with every per-layer metric. Results
# land in bench-result.json (git-ignored); compare two such files with
# `go run ./bench -compare a.json b.json`.
bench:
	$(GO) run ./bench -trace 1 -out bench-result.json

# bench-smoke runs the same harness over op lists ÷ 20: every path and
# every metric exercised, nothing measured (the CI job).
bench-smoke:
	$(GO) run ./bench -smoke -trace 1

# bench-counts is the deterministic gate: the counted prefixes of the two
# -seq workloads at seed 1 must reproduce bench-counts.json exactly —
# distance evaluations per query and the digest of every answer. Counts
# repeat on any machine; timings are not looked at. (jq + diff rather than
# `-compare`, which refuses files from differing environments.) After a
# deliberate change, regenerate the file with the jq line below.
bench-counts:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for w in protein-seq traj-erp-seq; do \
		$(GO) run ./bench -workload $$w -seed 1 -seconds 1 -out "$$tmp/$$w.json" >/dev/null || exit 1; \
	done && \
	jq -s '[.[].results[] | {workload, dist_per_query: .metrics.dist_per_query.value, answers_digest}]' \
		"$$tmp/protein-seq.json" "$$tmp/traj-erp-seq.json" | diff -u bench-counts.json - && \
	echo "bench-counts: dist_per_query and answers_digest match bench-counts.json"

# serve-smoke is the daemon's end-to-end check: build the real subseqctl
# binary, start `serve` on a synthetic dataset, issue one query per
# endpoint over HTTP, verify every JSON shape and /stats, then shut the
# daemon down gracefully with SIGTERM (TestServeSmokeBinary drives the
# whole flow).
serve-smoke:
	$(GO) test -run TestServeSmokeBinary -count=1 -v ./cmd/subseqctl

# snapshot-smoke is the persistence end-to-end check: build the real
# subseqctl binary, serve, mutate the live index over the admin API,
# snapshot, restart a fresh process with -restore and verify it answers
# byte-identically with zero re-indexing work, then exercise
# -snapshot-on-sigterm (TestSnapshotSmokeBinary drives the whole flow).
snapshot-smoke:
	$(GO) test -run TestSnapshotSmokeBinary -count=1 -v ./cmd/subseqctl

# shard-smoke is the scatter-gather end-to-end check: build the real
# subseqctl binary, start two shard serve processes plus a gateway that
# discovers the partition from their /stats, run per-kind and batch
# queries through the gateway (findall checked bit-identical against the
# library), kill one shard and verify the fleet keeps answering with the
# dead shard named in the degradation block, then shut down gracefully
# (TestShardSmokeBinary drives the whole flow).
shard-smoke:
	$(GO) test -run TestShardSmokeBinary -count=1 -v ./cmd/subseqctl

# replica-smoke is the replication end-to-end check: build the real
# subseqctl binary, start a 2-ranges × 2-replicas fleet behind a gateway
# with hedging and health probing, verify bit-identical answers, kill one
# replica and verify zero degradation, restart it on the same address and
# verify the breaker re-admits it, then shut down gracefully
# (TestReplicaSmokeBinary drives the whole flow).
replica-smoke:
	$(GO) test -run TestReplicaSmokeBinary -count=1 -v ./cmd/subseqctl

# cache-smoke is the result-cache end-to-end check: build the real
# subseqctl binary, start a 2-ranges × 2-replicas fleet behind a gateway
# with the result cache on (-cache-size/-cache-ttl), warm a hot query and
# see it hit on /stats, retire its sequence through the gateway's admin
# fan-out (both replicas ack, epoch bump, invalidation counter), and
# verify the next answer is the post-write truth — never the cached
# bytes — while the unwritten range answers from its cached partial: its
# replicas' /stats distance_calls stay unchanged; then retire a tail
# sequence no warmed answer names (the tail replicas' distance_calls stay
# unchanged: the partial carries forward) and append one (they rise by
# less than a full ask of the range: only the new sequence is asked)
# (TestCacheSmokeBinary drives the whole flow).
cache-smoke:
	$(GO) test -run TestCacheSmokeBinary -count=1 -v ./cmd/subseqctl

# chaos-smoke drives the fault-injection harness (internal/chaos) under
# the race detector on a CI time budget: worker kills mid-query, evaluator
# stalls against deadlines, queue slams past depth and cancellation
# storms, asserting no deadlock, no leaked futures and bit-identical
# results for every completed query.
chaos-smoke:
	$(GO) test -race -short -count=1 -timeout 300s -v ./internal/chaos

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; gofmt -d $$out; exit 1; fi

fmt-fix:
	gofmt -w .

vet:
	$(GO) vet ./...

# size fails when a tracked file is over 1 MiB. The largest source file here
# is a few dozen KiB, so anything that big is a build output that rode in
# with `git add -A` (a 12 MB subseqctl binary once did).
size:
	@big=$$(git ls-files -z | xargs -0 du -k | awk '$$1 > 1024'); \
	if [ -n "$$big" ]; then echo "tracked files over 1 MiB (KiB, path):"; echo "$$big"; exit 1; fi

# loc prints the non-test Go lines outside bench/ by package, with the
# total: the measured number a design-quality PR (ROADMAP aim 2) reports
# instead of an estimate. Untracked files that are not ignored count, so a
# new package is in the number before it is committed. No threshold; CI
# echoes it.
loc:
	@git ls-files --cached --others --exclude-standard '*.go' | grep -v -e '_test\.go$$' -e '^bench/' | xargs wc -l | \
	awk '$$2 != "total" { d = $$2; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d; printf "%7d  total (non-test Go lines outside bench/)\n", t }' | sort -k2

# race-accounting holds the stream engine's accounting rule (every counter
# and release moves before the future resolves; DESIGN.md §9) under the
# race detector, repeated: the two tests that used to see InFlight 1 after
# their last Await, the deterministic 2 000-submission sweep, and the
# fair-share eviction, which settles its victim through the job's task.
race-accounting:
	$(GO) test -race -count=20 -run 'TestStreamPanicFailsOnlyThatJob|TestWorkerPanicSelfHeals|TestStreamAccountingSettlesBeforeFuture|TestShedFairShare' ./internal/core/

# race-batch holds the query-set parallel-for (parallelFor behind the
# *Batch methods and QueryPool's barrier methods) under the race detector,
# repeated: the batches run concurrently, a panic reaches the caller, a
# one-query batch stays on the caller's goroutine, every batch path counts
# what one query at a time counts, and serve's /query/batch answers.
race-batch:
	$(GO) test -race -count=5 -run 'Batch|QueryPoolRace' ./internal/core/ ./cmd/subseqctl/

# nearest-equiv holds Type III to Section 7 under the race detector: the
# store oracle at full size (every query path, on every backend and measure
# kind, held to a brute-force model that replays Nearest's schedule on its
# own least segment-window distance; DESIGN.md §3) with its regression
# programs, once — its programs are seeded, so a repeat replays them — and,
# three times, the refnet session (MinDist, then Range reads that evaluate no
# pair twice) against a linear scan after every step of the mutation storm,
# seeded read programs on one session (rising, equal, falling radii) held to
# a fresh session, a linear scan and the evaluations of a walk from the root
# per read, the pinned build and re-home program (Save bytes and evaluations
# of a build, a delete of a third and the reinsert, on proteins and
# trajectories) and the pinned session walk (every evaluator call, bound and
# hit of Nearest-shaped reads under the kernel evaluator, on the same nets).
nearest-equiv:
	$(GO) test -race -count=1 -run 'TestProgramsMatchOracle|TestOracleRegressions' ./internal/store/
	$(GO) test -race -count=3 -run 'TestCoverRadiusStorm|TestSessionContinuedReads|TestBuildAndRehomePinned|TestSessionWalkPinned' ./internal/core/ ./internal/refnet/

# docs-check keeps the documentation honest: every relative markdown link
# must resolve, and every Example* godoc test must run (and match its
# Output comment).
docs-check:
	$(GO) run ./cmd/mdlinkcheck .
	$(GO) test -run Example ./...

check: fmt vet size build test docs-check
