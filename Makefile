.PHONY: check fmt vet compat build portable test race differential obsgate fuzz-smoke bench bench-all bench-check bench-smoke loc pairs e2e-pairs

# The pre-PR gate: formatting, static analysis, the compat shims' fence,
# build, the portable row
# kernel and the other architectures' build, race-enabled tests,
# the multi-query differential suite under the race detector, the two
# in-run wall-clock gates, the benchmark module's own build and tests, a
# two-second run of every benchmark workload, and a short fuzz of the
# storage decoders. It ends by printing `make loc`, so every PR's CI log
# carries the line count ROADMAP tracks.
check: fmt vet compat build portable race differential obsgate bench-check bench-smoke fuzz-smoke loc

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

# The compat shims are one-way. Each package's compat.go keeps a symbol only
# because bench/, a module of its own, names it, until ROADMAP item 1a
# deletes the file; no other non-test Go file may name one, so nothing new
# grows a dependency on them before then.
compat:
	@out="$$(grep -rnE --include='*.go' --exclude='*_test.go' --exclude=compat.go \
		--exclude-dir=bench --exclude-dir=.bench_build \
		'LayoutAoS|LayoutSoA|ColumnSpec|ColumnizePage|BlockKernel|RowWithin|vec\.Block\b|\.Cols\b' .)"; \
	if [ -n "$$out" ]; then echo "compat shims named outside bench/ and the compat.go files:"; echo "$$out"; exit 1; fi

build:
	go build ./...

# The row kernel has three bodies (the portable one and the AVX2 and
# AVX-512 screens, a fused multiply-add matrix product resolved by the
# scalar kernel), the item-lane and box-lane kernels and the VA-file's
# four-query lane sweep two (portable, AVX2), each selected by GOARCH, the
# purego tag and the CPU (internal/vec/rows*, screen*, items*, boxes*;
# internal/vafile/sweep*, by vec's probe). The default build tests every
# assembly body the CPU can run against the portable ones and the screens
# against their definition; this runs their packages and the X-tree, whose
# plan sweeps boxes, with the portable bodies as the only ones (the
# screens' definition and its soundness test still run; the item-lane
# tests sweep the page's records in place through the portable body, which
# walks them in Go at their stride as the assembly does), and builds and
# vets for an architecture that has no assembly so that the build-tag split
# cannot rot.
# go vet (above) checks the .s files against their Go declarations. The
# store's CRC-32C has two bodies, hash/crc32 and the AVX-512 fold
# (internal/store/crc32c*, by vec's probe): the purego run holds its tests
# to hash/crc32 alone and the arm64 vet checks the build without the fold.
# The store decodes a page where its record lies and byte-swaps the
# coordinates in place on a big-endian host; s390x builds and vets that
# body here (TestBindSwapsBigEndianWords runs it on this host). A unix
# FileDisk reads out of a mapping of the page file, and no unix build
# compiles the pread-only body (internal/store/mmap_other.go): the windows
# build and vet keep it compiling.
portable:
	go test -tags purego ./internal/vec/ ./internal/msq/ ./internal/xtree/ ./internal/vafile/ ./internal/store/
	GOARCH=arm64 go build ./...
	GOARCH=arm64 go vet ./internal/vec/ ./internal/vafile/ ./internal/store/
	GOARCH=s390x go build ./...
	GOARCH=s390x go vet ./internal/store/
	GOOS=windows go build ./...
	GOOS=windows go vet ./internal/store/

# Tier-1: the fast suite. -short skips the stress tests and trims the
# property-test rounds; the differential harness itself always runs.
test:
	go test -short ./...

race:
	go test -race ./...

# The determinism gate: the differential suites (engines, item placement, disk
# backends, observers and incremental calls against their references), Lemma
# 1/2 soundness properties, the bounded-kernel contract properties, the
# row and item-lane kernels' contracts against the scalar kernel (every
# body the CPU runs, the fuzz targets' seeds, and every body's loads held
# inside guard pages; the item lanes through both entries, the []Vector
# and the records swept in place, with their masks, their length checks
# and the record-field check), the row screens' soundness (a lane the screen
# rejects is one the scalar kernel rejects, on offset, duplicate,
# overflowing and underflowing data) and their masks against the screen's
# definition, the box-lane kernel against the
# gap-vector form and the X-tree's plan against the recursive walk, the row
# and item bodies against the pair-by-pair reference and the single query
# against Figure 1's scalar loop, the session/pager stress tests, the store
# concurrency tests, the page pin/recycle protocol tests, the ranking against
# its scalar loop, the decoded page against its record (vectors in place,
# the allocation count, the byte swap, the decoder fuzz seeds — under -race,
# checkptr checks that every vector pointed into a record stays inside that
# one allocation; the tests check the alignment), a recycled page rebound
# with the vector headers it kept against its record (one FileDisk on the
# mapping and on the pread fallback, over version-1 and version-2 records,
# through a record that grows, fewer and more items; records of other
# shapes in place), the store's CRC-32C and its copy form against
# hash/crc32 through every body (every length to 2 048 and the served
# record's ± 300 at 64 offsets, chained at random splits, the fuzz seeds,
# the copy equal to its source byte for byte, and the fold's loads held
# inside a guard page, the copy's stores inside another), a page file
# truncated under its mapping (the reads it cut fail as corrupt pages, the
# process lives, the page before the cut still verifies),
# concurrent sessions on one VA-file (its cell-table free lists, which every
# session's block of queries shares), the VA-file's block sweep against
# its lone sweep, bit for bit, and its lane-sweep bodies against a one-lane
# reference (every body the CPU runs, the fuzz target's seeds, and the
# assembly's loads held inside guard pages), the cluster fan-out's exact
# answers and the strict failure over in-process and loopback-TCP servers
# and its goroutine-leak checks, and what a sliding window may cost and must not
# change: the slice of answer lists a session call returns is session
# scratch that the next call overwrites while the lists stay live, a steady
# slide allocates only for the query that enters (no result slice, no
# singleflight record — an uncontended miss reuses the last one, and no
# state or page set — a completed query's are recycled), a recycled state
# is never reached under its old ID and a refused call gives back each
# state it took once, a page's range accepts landed in one call leave every
# list, Stats and profile as accepts landed one by one would, and DBSCAN's
# labels and the order its seeds enter the window are the same, and pinned,
# for every batch size, and what an index build decides: the X-tree's and
# the PM-tree's layouts are pinned bit for bit (leaf order, page contents,
# MBRs, balls, rings, build distances) however the build sorts and selects
# (and the PM-tree's selection takes exactly what a sort would), the
# X-tree's pages own their vectors (capped rows of one array in page order,
# bit-equal to the caller's, which stay untouched; no leaf keeps its items),
# and every engine kind refuses a NaN or infinite coordinate; the page
# buffer indexed by page ID against a container/list LRU (contents, order,
# counters and pins), the short insertion sorts of answers and plans against
# slices.SortFunc, and a session's matrix, answers and charges against brute
# force over random call sequences that reorder the window and resubmit
# held and completed IDs with the same array, an equal copy or another
# vector — all under the race detector. A listed name that matches no test
# function outside bench/ fails the target, so a renamed or deleted test
# cannot drop out of the pattern unseen.
DIFFERENTIAL = TestDifferential|TestLemma|TestStress|TestDistanceWithin|TestMinkowski|TestBlockRowIdentical|TestRowsLoadAgain|FuzzEucRows|TestRowScreenSound|TestRowLanes|TestItemLanes|FuzzEucItems|TestItemsDimensionMismatch|TestSweepRecords|TestBoxLanes|FuzzEucBoxes|TestPlanMatchesRecursiveWalk|TestRowBodyMatchesPairBody|TestSingleMatchesScalarLoop|TestRankingMatchesScalarLoop|TestBufferConcurrency|TestDiskConcurrent|TestPagerSingleflight|TestPagerPins|TestPagerUncontendedMissAllocatesNothing|TestPageRecycle|TestDecodedPageAliasesRecord|TestRebind|TestCRC32C|FuzzCRC32C|TestTruncatedMappingIsCorruption|TestStoredScanAllocations|TestBindSwapsBigEndianWords|FuzzPageDecode|FuzzColumnarPageDecode|TestBlockSweepMatchesLone|TestLaneSweep|FuzzLaneSweep|TestFanOut|TestResultsSliceIsSessionScratch|TestSlideAllocations|TestCompletedQueriesReleaseTheirState|TestRecycledStateIsNeverStale|TestStagedAcceptsMatchPerAccept|TestConsiderAllMatchesConsider|TestDBSCANBatchSizesAgree|TestBulkGoldenDigest|TestLayoutGoldenDigest|TestNearestFirstTakesTheSmallest|TestNonFiniteCoordinatesRejected|TestPlanAllocatesItsResultOnly|TestAppendPlanIsPlan|TestBoundedConsiderMatchesModel|TestFullBoundedConsiderAllocatesNothing|TestBufferMatchesLRUModel|TestShortSortsMatchSortFunc|TestSessionMatrixAgainstBruteForce|TestBuildPacksDataPages
differential:
	@for name in $$(echo '$(DIFFERENTIAL)' | tr '|' ' '); do \
		grep -rqE --include='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build "^func $$name" . || \
			{ echo "differential: no test matches $$name"; exit 1; }; \
	done
	go test -race -count=1 -run '$(DIFFERENTIAL)' \
		./internal/msq/ ./internal/query/ ./internal/engine/ ./internal/store/ ./internal/vec/ ./internal/vafile/ ./internal/xtree/ ./internal/pmtree/ ./internal/engines/ ./internal/parallel/ ./internal/explore/ .

# A short fuzz of the persistent-storage decoders: corrupt page records
# and manifests must produce errors, never panics or over-allocation; the
# store's CRC-32C and its copy form must equal hash/crc32 through every
# body. The committed seed corpora cover the interesting boundaries; 30
# seconds per target explores beyond them on every check. The four kernel targets hold
# the assembly and the portable bodies to the scalar kernel (the row
# screens: also their rejections to the scalar kernel's and their masks to
# the screen's definition; the item lanes: through both entries, in
# sweeps of up to 64 rows, their masks included; the boxes: to the
# gap-vector form; the VA-file's lane sweep: to a one-lane reference) on
# coordinates, limits, cells and tables no generator would pick.
# The request path a client can reach — one arbitrary line to a server with
# admission on, over a stored scan — must answer with JSON and a code, never
# panic, and keep serving the oracle's answers. The wire's hand-written codec
# is held to encoding/json on both ends: a request or response line its
# decoder takes must be one json.Unmarshal takes, to the same message, and a
# message json.Unmarshal yields must encode to json.Marshal's bytes.
fuzz-smoke:
	go test -run='^$$' -fuzz=FuzzEucRows -fuzztime=30s ./internal/vec/
	go test -run='^$$' -fuzz=FuzzEucItems -fuzztime=30s ./internal/vec/
	go test -run='^$$' -fuzz=FuzzEucBoxes -fuzztime=30s ./internal/vec/
	go test -run='^$$' -fuzz=FuzzLaneSweep -fuzztime=30s ./internal/vafile/
	go test -run='^$$' -fuzz=FuzzPageDecode -fuzztime=30s ./internal/store/
	go test -run='^$$' -fuzz=FuzzManifestDecode -fuzztime=30s ./internal/store/
	go test -run='^$$' -fuzz=FuzzColumnarPageDecode -fuzztime=30s ./internal/store/
	go test -run='^$$' -fuzz=FuzzCRC32C -fuzztime=30s ./internal/store/
	go test -run='^$$' -fuzz=FuzzTableDecode -fuzztime=30s ./internal/pivot/
	go test -run='^$$' -fuzz=FuzzServeRequest -fuzztime=30s ./internal/wire/
	go test -run='^$$' -fuzz=FuzzDecodeResponse -fuzztime=30s ./internal/wire/

# The in-run wall-clock gates. Two are ratios of two interleaved min-of-N
# measurements in one process: the real MultiQuery with a tracer installed
# must run within 10% of the same batch untraced, and a DBSCAN job sliding a
# window of 50 queries through its session must take at most 1.15 times the
# same job with single queries. The third holds the §6.2 micro figure's
# distance-to-comparison cost ratio above 3 and growing with the dimension.
# The only wall-clock assertions in the repository: they skip themselves
# unless METRICDB_OBSGATE is set, so `go test ./...` never judges time, and
# they run without the race detector.
obsgate:
	METRICDB_OBSGATE=1 go test -count=1 -v -run 'TestTracerOverheadGate|TestIncrementalOverheadGate|TestMicroFigureGate' \
		./internal/msq/ ./internal/explore/ ./internal/experiments/

# The benchmark in bench/ is a module of its own that imports
# metricdb/internal/...; the root module's build and tests do not see it.
# Vetting and testing it here makes an internal API change that breaks the
# benchmark fail the PR instead of the next benchmark run.
bench-check:
	cd bench && go vet ./... && go test ./...

# Two seconds of every benchmark workload at full size, seed 1. The run
# exits non-zero on a wrong answer or when the answers' digest differs from
# bench/digests.json, so an "optimisation" that changes an answer fails
# here, before the benchmark run that would reject it.
bench-smoke:
	@for w in batch_knn_scan dbscan_xtree engines_lowdim serve_stored; do \
		echo "bench-smoke: $$w"; \
		bash bench/run.sh -workload $$w -seed 1 -seconds 2 -trace 0 > /dev/null || exit 1; \
	done

# Non-test Go lines per package (comments included), the number the
# design-debt items in ROADMAP.md are tracked with; assembly is reported
# beside the total, not in it. bench/ is its own module.
loc:
	@for d in $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -exec dirname {} \; | sort -u); do \
		printf '%7d %s\n' "$$(cat $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go') | wc -l)" "$$d"; \
	done | awk '{ print; total += $$1 } END { printf "%7d total\n", total }'
	@s="$$(find . -name '*.s' ! -path './bench/*' ! -path './.bench_build/*')"; \
		printf '%7d assembly (%s)\n' "$$(cat $$s | wc -l)" "$$(echo $$s)"

# The perf gate for the hot path: kernel microbenchmarks (full Distance vs
# bounded DistanceWithin, with allocation counts for the scratch-reuse
# check; a pair of the page pass by the scalar kernel, the portable row and
# item-lane bodies and the assembly ones (the avx2 and avx512 row screens
# over tiles of 32 items, at one block, two and thirteen, and over tiles of
# one and offset data; avx2 items), then by the three bodies of the
# page pass at the widths around rowPath's constant; a sweep of child MBRs by
# the per-box loop and the box-lane bodies), the VA-file's plan and its sweep
# per query (lone, and in blocks by the portable and the AVX2 lane body), the X-tree's plan and dynamic build, every engine's build over
# the engines_lowdim shape (ns and heap bytes per build) and a one-shot 16-query k-NN batch on each
# engine over it (B and allocations per query), the sliding window of a mining
# loop, a whole DBSCAN job (ns and heap bytes per query), a stored page's decode (in place and from caller memory, ns/page and
# B/op), a stored read split into the copy out of the mapping, the
# fallback's pread, verify, bind and the whole miss, the CRC-32C's two
# bodies (in place, copied then summed, and the one-pass copy) and the
# stored scan's page path, the wire's four
# message operations by the hand codec and by encoding/json (one 10-NN query
# over 16 coordinates and its ten answers) and a served single query over
# loopback with admission on (ns, B and allocations per query, both ends), then the end-to-end
# artifacts — the admission-control load profiles (BENCH_load.json) and the
# page pass's avoidance axis (BENCH_block.json). The deterministic
# work counters are not here: go test pins them (TestEngineWorkGolden).
bench:
	go test -bench='BenchmarkDistance|BenchmarkRowKernel|BenchmarkItemKernel|BenchmarkBoxKernel|BenchmarkSortRefs|BenchmarkPlan|BenchmarkSweep|BenchmarkBulk|BenchmarkBuild|BenchmarkBatchAllocs|BenchmarkMultiQueryAll|BenchmarkPassBodies|BenchmarkIncrementalWindow|BenchmarkDBSCAN|BenchmarkStoredScan|BenchmarkDecodePage|BenchmarkFileDiskRead|BenchmarkCRC32C|BenchmarkCodec|BenchmarkServeQuery' -benchmem -run=^$$ \
		./internal/vec/ ./internal/vafile/ ./internal/xtree/ ./internal/engines/ ./internal/msq/ ./internal/explore/ ./internal/store/ ./internal/wire/
	go run ./cmd/msqbench -experiment load
	go run ./cmd/msqbench -experiment block

# The CPU cost of a change in alternating pairs: PKG's test binary built at
# BASE and at HEAD (git revisions, "." for the working tree) and run on BENCH
# in N pairs, the side that runs first alternating, with each run's user+sys
# CPU, each pair's ratio and the median printed (scripts/pairs.sh;
# BENCHTIME defaults to 40x).
#   make pairs BENCH=BenchmarkDBSCAN PKG=./internal/explore/ BASE=HEAD HEAD=. N=12
pairs:
	@bash scripts/pairs.sh '$(BENCH)' '$(PKG)' '$(BASE)' '$(HEAD)' '$(N)' $(BENCHTIME)

# The end-to-end cost of a change on one benchmark workload in alternating
# pairs: the benchmark built at BASE and at HEAD as bench/run.sh builds it,
# run on W for BENCHMARK.json's run_seconds at seed 1 in N pairs, the
# side that runs first alternating, with every end-to-end metric's
# per-pair change ÷ base, its median, how many pairs went each way, each
# side's median and the base's interquartile range printed
# (scripts/e2e-pairs.sh) — peak_rss_mb included, which `make pairs` cannot
# see.
#   make e2e-pairs W=dbscan_xtree BASE=HEAD HEAD=. N=10
e2e-pairs:
	@bash scripts/e2e-pairs.sh '$(W)' '$(BASE)' '$(HEAD)' '$(N)'

# Every benchmark in the repository, including the paper-figure suites.
bench-all:
	go test -bench=. -benchmem -run=^$$ ./...
