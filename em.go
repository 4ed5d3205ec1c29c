// Package em is the public facade of the external-memory algorithm suite.
//
// The library reproduces, as a working system, the algorithm catalogue of
// the PODS 1998 survey "External Memory Algorithms": the Parallel Disk
// Model and the classical I/O-efficient algorithms and data structures
// built on it. Everything runs on an instrumented in-process disk model
// (see NewVolume) that counts block transfers exactly and enforces the
// internal-memory budget M through a frame pool, so measured I/O counts are
// directly comparable to the survey's Θ-bounds:
//
//	Scan(N)   = Θ(N / (D·B))
//	Sort(N)   = Θ(N/(D·B) · log_{M/B}(N/B))
//	Search(N) = Θ(log_B N)
//	Perm(N)   = Θ(min(N/D, Sort(N)))
//
// # Getting started
//
// Create a volume (the disk) and a pool (the memory budget), materialise
// records, and run algorithms:
//
//	vol := em.MustVolume(em.Config{BlockBytes: 4096, MemBlocks: 64, Disks: 1})
//	pool := em.PoolFor(vol)
//	f, _ := em.FromSlice(vol, pool, em.RecordCodec{}, records)
//	sorted, _ := em.SortRecords(f, pool, nil)
//	fmt.Println(vol.Stats()) // exact block reads/writes
//
// # Concurrency
//
// The volume is a genuinely concurrent I/O engine, not just a counter. Each
// simulated disk serialises its own transfers behind a per-disk lock, and
// when Config.DiskLatency is non-zero every transfer books its service time
// on a per-disk timeline and waits until the worst disk's reservation runs
// out, so a striped batch costs the wall-clock time of the worst single
// disk — the model's parallel-step cost becomes measurable with a
// stopwatch, and D disks give ≈D-way speedup on striped scans. The volume
// starts no goroutine; Close releases its files and any wait still
// running. Volumes and pools are safe for concurrent use; read Stats via
// Snapshot when I/O may be in flight on other goroutines.
//
// On top of the engine, AsyncScan, the sorts and the bulk loader get
// forecast-driven overlap by opening the one Reader and Writer one group
// deeper: a reader opened ahead keeps its next block group in flight
// (read-ahead — for a sequentially consumed file, the block the survey's
// forecast selects is exactly the next sequential one) and a writer opened
// behind flushes the previous group while the caller fills the next. The
// second group is charged to the same Pool, so the memory budget M still
// binds. One depth rule serves every pass, and no option picks the depth:
// the streams a pass opens together — a merge group's readers and output
// writer, a distribution level's reader and two bucket writers, the bulk
// loader's input reader — go one group deeper exactly when all of them fit
// at 2×Width in the frames the pass has free, and run on demand otherwise.
// Depth changes only when a batch is issued, never which, so counted I/Os
// do not depend on it.
//
// # Write-optimal index construction
//
// Index construction gets the same treatment on its write side. The B-tree
// bulk loader threads each leaf's sibling pointer forward — the successor's
// block is allocated before the leaf is sealed — so no leaf is ever
// revisited, and the loader exploits exactly that: leaves bypass the
// pinning cache and stream to the disks write-behind, in Width-block
// batches through the async engine while the next group is packed
// (internal nodes, at most N/B of them, go through the cache). SortIndex
// fuses the two halves of index building: the loader is the distribution
// sort's sink, so each memory-sized bucket is sorted and appended straight
// into leaves, smallest key range first, and the sorted order never exists
// as a file. That costs the survey's bound — Sort(N) plus one write per
// node — and saves the ⌈N/B⌉ writes and ⌈N/B⌉ reads of sorting to a file
// and loading from it, which is what the test suite pins on both storage
// backends.
//
// Write-behind writes each node exactly once, so a load's counted writes
// are the finished tree's node count and its reads are the input's blocks.
// What it sets is the parallel step count: a width-D load writes D leaves
// per step where a one-leaf-at-a-time writer would leave D-1 disks idle,
// and experiment F11 measures that across D. It costs 2×Width pool frames
// (its double buffer) beside the cache. SortIndex carves the loader's
// whole budget (CacheFrames + 2×Width) from the pool up front, so the
// sort's splitting decisions are fixed before the first record reaches the
// loader.
//
// # Serving queries
//
// The read path gets the same treatment as construction, because a built
// index is only as good as the queries it serves. Three mechanisms make
// B-tree query serving parallel-disk-optimal (see examples/kvserve for all
// of them together):
//
// Batched point lookups. BTree.GetBatch answers a batch of keys level by
// level: the batch is sorted, so consecutive keys share their upper-level
// nodes, and each level's distinct nodes are read exactly once — the root
// costs one read per batch, not one per key — through the async engine in
// groups as wide as the buffer manager can pin beside the internal nodes it
// retains (half its other frames), so a level's misses leave as one or two
// large parallel reads whose per-disk imbalance averages out, with the next
// group in flight while the current one is searched. Counted reads never
// exceed a loop of Gets from the same cache state, and with shared
// internals are strictly below it.
//
// Prefetched range scans. BTree.NewScanner (and RangePrefetch) streams a
// key range with up to Width leaf reads in flight: upcoming leaf addresses
// are forecast from cache-resident parent nodes — an internal node lists
// its children, consecutive leaves, in key order — and the scan degrades to
// pipelining one leaf ahead along the sibling chain when a parent is not
// resident. Leaves are read into the scanner's own frames instead of being
// admitted to the buffer manager (a scan touches each leaf once; polluting
// the cache would evict the hot internals point queries rely on), so a full
// scan costs exactly Range's reads at AsyncScan's wall clock. BTree.Warm
// preloads the internal levels — Θ(N/B²) blocks — so forecasting starts
// with resident parents, the classical serving posture. BTree.Max joins
// Min for the key-space edges.
//
// Concurrent read sessions. BTree.NewSessionOn opens a read-only query
// handle with a private buffer manager and scanner budget carved from the
// caller's pool up front, exactly like SortIndex's loader budget: the
// session reads into the frames it carved, which the caller's pool counts,
// and makes none of its own. So G goroutines serve a mixed point/range workload against one tree — the
// per-disk engine overlaps their transfers and QPS scales toward D — while
// the memory bound M still holds. (The interface form, BTree.NewSession,
// draws the budget from the tree's own pool.) Sessions never dirty a page
// and cannot evict a writer's pinned working set; like all readers they
// must not overlap mutations. Experiment F12 measures the three
// mechanisms' gates (batch speedup and read savings, scan speedup at
// identical reads, session QPS scaling) on both storage backends.
//
// # An updatable store
//
// Store closes the loop between the write-optimal and read-optimal halves:
// an online key-value index that serves Get/GetBatch/Scan while absorbing
// Insert/Delete, with neither side giving up its bound. Updates land in
// an in-memory write front, sequenced and kept in key order at no I/O —
// the pending updates fit in memory, so the buffer tree's cascade has
// nothing to amortise; when the front crosses a configurable threshold
// (StoreConfig.FrontOps) it is sealed and a background drain merge-applies
// its resolved operations — delete tombstones included, last writer wins
// by sequence number — into a scan of a B-tree generation, streaming the
// result through the write-behind bulk loader into a fresh generation.
// The generations follow the survey's logarithmic method: an old tree of n
// records and at most one young tree, which holds the live records of the
// last few fronts beside an exact in-memory directory of the keys they
// touched, one delete bit each. A threshold drain rewrites only the young
// tree, until it has absorbed k−1 fronts of F operations, k = ⌊√(2n/F)⌋;
// the k-th merges everything into the old tree, so a front costs
// Θ((kF/2 + n/k)/B) writes instead of the Θ(n/B) of rebuilding the old
// tree every time. An explicit Drain or StartDrain always compacts into
// one generation. Readers swap over atomically: generations are
// reference-counted, so in-flight StoreScanners and StoreSessions keep
// their generation (and its blocks) until they close, and a superseded
// generation is reclaimed when its last reader departs. The drain runs on
// a budget carved from the pool at Open at half-width striping, and reads probe the
// two fronts and the young directory in memory — a key the directory does
// not hold costs only the old tree's reads — so read throughput holds
// while the rebuild runs; experiment F13 gates the write amortisation and
// the in-drain read QPS.
// Buffered updates are not durable: until a drain writes them into a
// generation they exist only in memory, and OpenStore always starts
// empty. See examples/kvstore.
//
// # Sharded serving
//
// Every serving implementation above — the read-optimised BTree and the
// updatable Store — presents the same five-method surface, named by the
// Index interface (Get, GetBatch, Scan, NewSession, Stats, Close) with
// Session as its read-handle counterpart, so engines and examples are
// written once against Index and run unchanged over any backend.
//
// The sharded types scale that surface past one volume's disk set: the
// Parallel Disk Model's striping lifted one level, D disks inside a
// volume, S volumes inside a system. NewShardedTree and OpenShardedStore
// range-partition the keyspace across S independent volumes — each with
// its own Config, directory, disks, and pool — by S-1 split keys, shard i
// owning [splits[i-1], splits[i]). GetBatch cuts the sorted batch at the
// partition boundaries (a merge cut: one binary search per shard touched,
// never a per-key pass) and fans the per-shard sub-batches out
// concurrently, each shard deduping and striping its piece over its own
// disks; Scan stitches per-shard scanners in shard order — which range
// partitioning makes key order — behind one Scanner, pulling a tree
// shard's records a leaf at a time (BTreeScanner.NextBatch) into one
// buffer, so a stitched scan holds one leaf of decoded records, at most
// one block of bytes, on the heap beside its 2×Width pool frames (a reversed
// range, lo > hi, opens no shard and takes no frame); NewSession composes
// per-shard sessions, each with its reserved budget on its shard's pool;
// ShardedStore routes Insert/Delete to the owning shard's write front,
// and the shards seal and drain independently, so one shard's
// rebuild never stalls another's reads. Aggregated Stats sum the counters
// and concatenate the per-disk breakdowns in shard order, extending the
// sim==file byte-identity invariant verbatim; every error a shard
// surfaces is wrapped with its shard index (errors.Is still sees the
// cause), so a starved pool names the shard that hit its budget.
// Experiment F14 gates the sharded QPS scaling and the cross-backend
// aggregate identity.
//
// # Robustness
//
// The model assumes D disks that always answer; the serving stack does
// not. Four mechanisms keep the guarantees under faults and overload:
//
// Fault model. Errors are classified transient or permanent with the
// Transient marker (IsTransient): a transient error — a flaky pread, a
// momentarily busy device — is retryable; everything else propagates
// unchanged. FaultPlan is a deterministic, seeded schedule of injected
// faults (transient read/write errors, per-disk latency spikes, a
// fail-after-N crash point) wrapped around any storage backend via
// Config.Fault, so every layer's unwind paths are exercised mechanically:
// the same seed replays the same faults. Faults fire before any data
// moves, so a retried transfer is indistinguishable from a clean one.
//
// Retry policy. Config.Retry enables capped exponential backoff under a
// per-op deadline in the volume's per-disk service loop, on the
// single-block and batched paths alike. Retried attempts are not
// re-charged to Reads/Writes — the transfer is the same block op however
// many attempts it took — so a faulted run that retries to success
// reports output and counted I/Os identical to the clean run's, with the
// extra work auditable in Stats.Retries. The sim==file byte-identity
// invariant therefore extends to faulted runs.
//
// Overload semantics. With admission control configured (AdmitQueue /
// AdmitWait on btree Options, store Config, and their sharded facades),
// pool starvation inside GetBatch, Scan, or NewSession becomes a bounded
// FIFO wait for frames: the request queues in arrival order, wakes as
// frames free, and retries; past the queue bound or the deadline it is
// shed with an OverloadError matching both ErrOverload ("the system chose
// to shed") and ErrNoFrames (the starvation underneath). Admission off —
// the default — keeps starvation a hard error.
//
// PartialError contract. A sharded GetBatch that loses some shards but
// not all returns the surviving shards' answers alongside a *PartialError
// naming the failed shards (with their wrapped causes), the shards that
// answered, and a per-key Served mask; only a batch with no surviving
// shard fails outright. Callers that can tolerate holes keep the answers,
// callers that cannot treat the error as fatal — either way errors.Is
// sees through to each cause. Deterministic tests pin all four:
// TestRetryToSuccessIdentity (per block transfer) and
// TestServeUnderRetriedFaults (a served B-tree) the fault model and the
// retry identity, TestStarvedPoolErrorsUniform the typed shed, and
// TestShardedGetBatchUnwindUnderFault the partial batch.
//
// # Invariants
//
// Four resource disciplines keep the I/O accounting exact, and every
// algorithm in the module hand-enforces them:
//
//   - Pool balance: every frame handed out by a Pool (Alloc, MustAlloc,
//     AllocN) reaches Release or ReleaseAll on every path to return —
//     including error unwinds — so the memory budget M stays exact and
//     pool exhaustion is a caller bug, never a leak.
//   - Pin pairing: every page pinned by a buffer manager (Get, Pin, GetNew,
//     Peek, GetBatchAsync) is unpinned on every path; a page whose pin
//     count never returns to zero can never be evicted, which silently
//     shrinks the cache until admission fails.
//   - Async deadlines: every deadline a dispatched batch returns
//     (BatchReadAsync, BatchWriteAsync, GetBatchAsync) reaches Volume.Wait
//     on every path after a successful dispatch. The bytes move and the
//     error is decided at dispatch; the wait is the model time the batch
//     reserved, so skipping it undercounts the wall clock.
//   - Stream lifecycle: every opened Reader, Writer, Scanner, Session and
//     Cache is closed on every path; these hold frames and pins, so a
//     handle dropped on an unwind leaks part of the budget.
//
// These are machine-checked: cmd/emlint is a static analyzer suite
// (poolbalance, pinpair, joinasync, closesink) that proves them per
// function over the whole module, runs from `make lint`, gates CI, and is
// pinned by a repo-wide test. A deliberate ownership handoff the analysis
// cannot see is annotated `//emlint:owns: <why>` at the acquisition; see
// CONTRIBUTING.md.
//
// # File-backed volumes
//
// Where a volume's blocks live is pluggable through the Backend seam: the
// volume owns addressing, counters, per-disk locking and service-time
// reservations, and delegates only the final one-block transfer. The default
// backend simulates the disks in memory; setting Config.Dir (or calling
// NewFileVolume) maps each of the D simulated disks to its own file under a
// directory, so every algorithm in the module — including the asynchronous
// sort and bulk-load paths — runs unchanged against real storage:
//
//	vol, err := em.NewFileVolume(em.Config{BlockBytes: 4096, MemBlocks: 64, Disks: 4}, "/data/pdm")
//	defer vol.Close()
//
// Counters are charged before the backend is invoked, so Stats snapshots
// are identical between the memory and file backends for the same workload
// (a property the test suite pins down with quick-checks over the sorts and
// the bulk loader); only the wall clock changes meaning. On Linux, backing
// files are opened with O_DIRECT when BlockBytes is a multiple of 4 KiB and
// the filesystem accepts the flag (tmpfs, for one, does not), so transfers
// bypass the page cache and the measured times are the medium's; everywhere
// else the backend transparently falls back to ordinary buffered I/O, which
// preserves semantics but lets the OS cache absorb re-reads. Writes are
// always pwrite, and O_DIRECT disks read with pread. A buffered disk's reads
// are copies out of a read-only shared mapping of its file, with no syscall
// per read; a page fault on such a read (the file truncated or failing
// under a live volume) comes back as an error, not a crash. Mapped pages are
// page cache, not frames charged to the pool's M. File-backed
// volumes should always be Closed; the per-disk files are left on disk for
// inspection and are the caller's to delete.
//
// The subsystems exposed here are:
//
//   - external sorting: MergeSort, DistributionSort, SortViaBTree (baseline)
//   - permuting: Permute, PermuteNaive, PermuteBySorting
//   - matrices: Matrix, Transpose, TransposeNaive, MatMul
//   - online dictionaries: BTree (with BulkLoadBTreeWith and SortIndex), HashTable
//   - batched updates: BufferTree
//   - updatable store: Store (in-memory write front + generational B-tree)
//   - priority queues: PQ
//   - graph algorithms: Graph, BFS, BFSUndirected, ConnectedComponents
//   - list ranking: RankList, RankListNaive
//   - batched geometry: Intersections (distribution sweep)
//   - paging policies: FaultsLRU, FaultsFIFO, FaultsCLOCK, FaultsMIN
//
// Each algorithm's doc comment states the I/O bound it meets and, where the
// survey describes one, the naive baseline it is benchmarked against.
// cmd/embench regenerates every experiment table, and the shape tests in
// internal/experiments assert each table's claim.
package em

import (
	"fmt"

	"em/internal/btree"
	"em/internal/buffertree"
	"em/internal/cache"
	"em/internal/emgraph"
	"em/internal/emtree"
	"em/internal/extcoll"
	"em/internal/extsort"
	"em/internal/fft"
	"em/internal/geometry"
	"em/internal/hashing"
	"em/internal/index"
	"em/internal/listrank"
	"em/internal/matrix"
	"em/internal/pdm"
	"em/internal/permute"
	"em/internal/pqueue"
	"em/internal/record"
	"em/internal/shard"
	"em/internal/store"
	"em/internal/stream"
	"em/internal/timefwd"
)

// ---------------------------------------------------------------------------
// Parallel Disk Model
// ---------------------------------------------------------------------------

// Config fixes the device shape of a Parallel Disk Model instance: block
// size in bytes, memory capacity in blocks (M/B), disk count D, and the
// simulated per-block service time DiskLatency (zero keeps the purely
// counted model; non-zero makes every transfer wait out its parallel-step
// cost on per-disk timelines, so that cost is wall-clock measurable).
type Config = pdm.Config

// Volume is an instrumented block device striped over D simulated disks,
// safe for concurrent use; transfers to distinct disks proceed in parallel.
// All I/O performed by the algorithms in this module flows through a Volume
// and is counted in its Stats.
type Volume = pdm.Volume

// Pool enforces the internal-memory budget: it lends out at most M/B
// block-sized frames and fails loudly beyond that. Pool is safe for
// concurrent use, so asynchronous streams charge their double buffers to
// the same budget.
type Pool = pdm.Pool

// Stats holds a volume's I/O counters: block reads, block writes, and
// parallel I/O steps, maintained with per-disk atomic shards. Sequential
// callers may read fields directly; use Snapshot while I/O is in flight.
type Stats = pdm.Stats

// Frame is one block-sized buffer on loan from a Pool.
type Frame = pdm.Frame

// Backend is the storage seam behind a Volume: the medium holding the D
// simulated disks' blocks. The volume charges all counters itself, so Stats
// are identical whichever backend serves the bytes. See the package
// comment's file-backed volumes section.
type Backend = pdm.Backend

// NewVolume creates an empty volume with the given configuration. With
// Config.Dir set the volume is file-backed (see NewFileVolume).
func NewVolume(cfg Config) (*Volume, error) { return pdm.NewVolume(cfg) }

// NewFileVolume creates a volume whose D simulated disks are real files —
// one per disk — under dir, created if absent. It is shorthand for setting
// cfg.Dir. Close the volume to close the files.
func NewFileVolume(cfg Config, dir string) (*Volume, error) {
	cfg.Dir = dir
	return pdm.NewVolume(cfg)
}

// MustVolume is NewVolume for known-good configurations; it panics on error.
func MustVolume(cfg Config) *Volume { return pdm.MustVolume(cfg) }

// PoolFor creates the frame pool implied by a volume's configuration:
// MemBlocks frames of BlockBytes bytes each.
func PoolFor(v *Volume) *Pool { return pdm.PoolFor(v) }

// NewPool creates a pool of capacity frames of blockBytes bytes each, for
// callers that want a budget different from the volume's default.
func NewPool(blockBytes, capacity int) *Pool { return pdm.NewPool(blockBytes, capacity) }

// ErrNoFrames reports that a buffer pool is exhausted — the memory budget
// M is exceeded. Reservations that fail (a session's cache budget, a
// stream's second group) wrap it, and the sharded facades prefix
// the owning shard's index, so errors.Is(err, ErrNoFrames) holds across
// every layer.
var ErrNoFrames = pdm.ErrNoFrames

// ---------------------------------------------------------------------------
// Robustness: fault model, retry policy, overload, partial results
// ---------------------------------------------------------------------------

// ErrTransient is the marker carried by Transient-classified (retryable)
// errors; match with IsTransient or errors.Is.
var ErrTransient = pdm.ErrTransient

// ErrFaulted is the permanent error a fault plan's fail-after-N crash
// point produces: the disk is dead and retries are pointless.
var ErrFaulted = pdm.ErrFaulted

// ErrOverload is the marker for a request shed by admission control. A
// shed error matches both ErrOverload and ErrNoFrames, so backpressure is
// distinguishable from a hard memory-budget violation.
var ErrOverload = index.ErrOverload

// Transient classifies err as retryable; the volume's retry policy
// re-drives transient service errors and propagates everything else.
func Transient(err error) error { return pdm.Transient(err) }

// IsTransient reports whether err is classified retryable.
func IsTransient(err error) bool { return pdm.IsTransient(err) }

// FaultPlan is a deterministic, seeded schedule of injected faults —
// transient read/write errors, per-disk latency spikes, a fail-after-N
// crash point — installed on a volume via Config.Fault. See the package
// comment's robustness section.
type FaultPlan = pdm.FaultPlan

// FaultBackend is the fault-injecting backend a FaultPlan installs;
// Volume.Fault returns it for auditing injected counts.
type FaultBackend = pdm.FaultBackend

// RetryPolicy drives the volume's handling of transient service errors:
// capped exponential backoff under a per-op deadline, enabled via
// Config.Retry, audited in Stats.Retries.
type RetryPolicy = pdm.RetryPolicy

// OverloadError carries the admission decision behind a shed request: the
// queue depth observed, the time waited, and the starvation cause.
type OverloadError = index.OverloadError

// PartialError reports a sharded GetBatch that lost some shards while the
// rest answered; it accompanies the surviving results. See the package
// comment's robustness section for the contract.
type PartialError = shard.PartialError

// ---------------------------------------------------------------------------
// Records and files
// ---------------------------------------------------------------------------

// Codec converts values of type T to and from a fixed-width binary form.
type Codec[T any] = record.Codec[T]

// Record is the workhorse 16-byte record: a uint64 key and a uint64 value.
type Record = record.Record

// RecordCodec is the Codec for Record.
type RecordCodec = record.RecordCodec

// Pair is a two-field record of int64s, used for edges, list nodes, and
// intersection output.
type Pair = record.Pair

// PairCodec is the Codec for Pair.
type PairCodec = record.PairCodec

// Triple is a three-field record of int64s.
type Triple = record.Triple

// TripleCodec is the Codec for Triple.
type TripleCodec = record.TripleCodec

// U64Codec is the Codec for bare uint64 values.
type U64Codec = record.U64Codec

// F64Codec is the Codec for float64 values.
type F64Codec = record.F64Codec

// File is a sequence of fixed-size records packed into whole blocks on a
// volume.
type File[T any] = stream.File[T]

// Reader iterates a File in order, block by block, fetching on demand or,
// opened by NewPrefetchReader, ahead.
type Reader[T any] = stream.Reader[T]

// Writer appends records to a File, block by block, flushing on demand or,
// opened by NewAsyncWriter, behind.
type Writer[T any] = stream.Writer[T]

// NewFile creates an empty file on vol.
func NewFile[T any](vol *Volume, codec Codec[T]) *File[T] { return stream.NewFile[T](vol, codec) }

// NewReader creates a width-1 reader over f. Reading costs one block read
// per B records.
func NewReader[T any](f *File[T], pool *Pool) (*Reader[T], error) {
	return stream.NewReader(f, pool)
}

// NewWriter creates a width-1 writer appending to f.
func NewWriter[T any](f *File[T], pool *Pool) (*Writer[T], error) {
	return stream.NewWriter(f, pool)
}

// FromSlice materialises vs as a file on vol, charging the usual write I/Os.
func FromSlice[T any](vol *Volume, pool *Pool, codec Codec[T], vs []T) (*File[T], error) {
	return stream.FromSlice(vol, pool, codec, vs)
}

// ToSlice reads an entire file into memory, charging the usual read I/Os.
// Intended for small outputs and tests.
func ToSlice[T any](f *File[T], pool *Pool) ([]T, error) { return stream.ToSlice(f, pool) }

// ForEach streams every record of f through fn: Scan(N) I/Os.
func ForEach[T any](f *File[T], pool *Pool, fn func(T) error) error {
	return stream.ForEach(f, pool, fn)
}

// ---------------------------------------------------------------------------
// Streams opened ahead or behind (forecasting read-ahead and write-behind)
// ---------------------------------------------------------------------------

// NewPrefetchReader opens a Reader over f ahead: it fetches width blocks per
// parallel batch and keeps the following batch always in flight — the
// survey's forecasting read-ahead for sequential consumers. It holds
// 2×width pool frames and charges the same I/O counts as NewReader's
// on-demand form at the same width.
func NewPrefetchReader[T any](f *File[T], pool *Pool, width int) (*Reader[T], error) {
	return stream.NewPrefetchReader(f, pool, width)
}

// NewAsyncWriter opens a Writer appending to f behind: each full group of
// width blocks is flushed while the caller fills the next — double-buffered
// write-behind at identical I/O counts and file layout.
func NewAsyncWriter[T any](f *File[T], pool *Pool, width int) (*Writer[T], error) {
	return stream.NewAsyncWriter(f, pool, width)
}

// AsyncScan streams every record of f through fn with width-1 read-ahead:
// the next block is fetched while fn processes the current one. I/O counts
// are identical to ForEach; on a volume with non-zero DiskLatency the
// wall-clock time overlaps fetch and compute.
func AsyncScan[T any](f *File[T], pool *Pool, fn func(T) error) error {
	return stream.AsyncForEach(f, pool, 1, fn)
}

// ---------------------------------------------------------------------------
// Sorting (survey §3: fundamental batched problem)
// ---------------------------------------------------------------------------

// SortOptions tunes the external sorts: striping width, run-formation mode
// and a fan-in/fan-out cap for experiments. A merge sizes its fan-in at
// Width frames per stream, and a planned distribution level its fan-out at
// the frames its streams hold; both open their streams at the depth the
// package comment's one depth rule gives them. Async is a deprecated
// no-op.
type SortOptions = extsort.Options

// RunMode selects the run-formation technique for merge sort.
type RunMode = extsort.RunMode

// Run-formation modes.
const (
	// LoadSort fills memory, sorts, and writes runs of exactly M records.
	LoadSort = extsort.LoadSort
	// ReplacementSelection streams through an M-record tournament, giving
	// runs of expected length 2M on random input.
	ReplacementSelection = extsort.ReplacementSelection
)

// MergeSort sorts f by less with multiway external merge sort in
// Θ(n log_m n) I/Os, the survey's Sort(N) bound. The input is unchanged.
func MergeSort[T any](f *File[T], pool *Pool, less func(a, b T) bool, opts *SortOptions) (*File[T], error) {
	return extsort.MergeSort(f, pool, less, opts)
}

// DistributionSort sorts f by less with sample-based, hybrid distribution
// sort, also Θ(n log_m n) I/Os: each level splits its input into only as
// many buckets as the input needs, around splitters read off a sample of
// random blocks, and keeps the lowest bucket in memory for the pass, so a
// level costs one pass over the buckets it spills plus its sample. It
// honours the same SortOptions as MergeSort: Width stripes the partition
// readers and bucket writers over the disks. The depth rule (see the
// package comment) sets the depth of a level's streams and of the output
// writer beside them, and a level is planned at the frames they then hold.
// A level whose input no plan holds takes as many buckets as Width-frame
// streams fit.
func DistributionSort[T any](f *File[T], pool *Pool, less func(a, b T) bool, opts *SortOptions) (*File[T], error) {
	return extsort.DistributionSort(f, pool, less, opts)
}

// SortRecords sorts a Record file by key, then value, with merge sort —
// the common case. Its runs are sorted in memory by an in-place radix sort,
// which is not stable, but Record.Less is a total order: records it ties
// are equal in bytes, so the output is byte for byte MergeSort's by
// Record.Less.
func SortRecords(f *File[Record], pool *Pool, opts *SortOptions) (*File[Record], error) {
	return extsort.SortRecords(f, pool, opts)
}

// SortViaBTree is the survey's strawman "online sort": insert every record
// into a B-tree and scan the leaves, Θ(N log_B N) I/Os — worse than Sort(N)
// by roughly a factor of B/log(M/B).
func SortViaBTree(f *File[Record], pool *Pool, cacheFrames int) (*File[Record], error) {
	return extsort.SortViaBTree(f, pool, cacheFrames)
}

// IsSorted reports whether f is ordered by less, in one scan.
func IsSorted[T any](f *File[T], pool *Pool, less func(a, b T) bool) (bool, error) {
	return extsort.IsSorted(f, pool, less)
}

// ---------------------------------------------------------------------------
// Permuting and matrices (survey §4)
// ---------------------------------------------------------------------------

// PermuteNaive moves each record independently to its target position:
// Θ(N) I/Os, the survey's lower-bound branch for small N.
func PermuteNaive[T any](f *File[T], pool *Pool, perm []int64) (*File[T], error) {
	return permute.Naive(f, pool, perm)
}

// PermuteBySorting tags each record with its destination and sorts:
// Sort(N) I/Os, the winning branch for large N.
func PermuteBySorting[T any](f *File[T], pool *Pool, perm []int64, opts *SortOptions) (*File[T], error) {
	return permute.BySorting(f, pool, perm, opts)
}

// Permute applies perm to f, choosing the cheaper of the naive and
// sort-based methods — the survey's Θ(min(N, Sort(N))) permuting bound.
func Permute[T any](f *File[T], pool *Pool, perm []int64, opts *SortOptions) (*File[T], error) {
	return permute.Auto(f, pool, perm, opts)
}

// BitReversalPerm returns the bit-reversal permutation of size n (a power
// of two), the survey's canonical hard permutation (it forces Sort(N)).
func BitReversalPerm(n int) ([]int64, error) { return permute.BitReversal(n) }

// Matrix is a dense row-major matrix of float64 stored on a volume.
type Matrix = matrix.Matrix

// NewMatrix creates a zero rows×cols matrix on vol.
func NewMatrix(vol *Volume, pool *Pool, rows, cols int) (*Matrix, error) {
	return matrix.New(vol, pool, rows, cols)
}

// MatrixFromSlice materialises data (row-major, rows*cols long) on vol.
func MatrixFromSlice(vol *Volume, pool *Pool, rows, cols int, data []float64) (*Matrix, error) {
	return matrix.FromSlice(vol, pool, rows, cols, data)
}

// Transpose transposes m blockwise, O(n·log_m min(...)) ≈ Sort I/Os in the
// general case and Θ(n) for square block-aligned shapes.
func Transpose(m *Matrix, pool *Pool) (*Matrix, error) { return matrix.TransposeBlocked(m, pool) }

// TransposeNaive walks the output in row-major order, reading one input
// element per I/O once the matrix exceeds memory: the Θ(N) baseline.
func TransposeNaive(m *Matrix, pool *Pool) (*Matrix, error) { return matrix.TransposeNaive(m, pool) }

// MatMul multiplies a×b with the blocked sub-matrix algorithm,
// Θ(n³/(B·√M)) ≈ Θ(N^{3/2}/(B√M)) I/Os for N = n² elements.
func MatMul(a, b *Matrix, pool *Pool) (*Matrix, error) { return matrix.Multiply(a, b, pool) }

// ---------------------------------------------------------------------------
// The unified serving API
// ---------------------------------------------------------------------------

// Index is the serving surface every key-value index in the module
// presents: point reads, sorted-batch reads, snapshot range scans, read
// sessions with reserved budgets, and aggregate I/O counters. BTree and
// Store implement it over one volume; ShardedTree and ShardedStore
// implement it over S volumes — code written against Index serves
// unchanged from any of them. Implementations substitute their configured
// defaults for out-of-range NewSession arguments, so NewSession(0, 0)
// always means "this index's defaults".
type Index = index.Index

// Session is a read-only query handle opened by Index.NewSession: a
// private reserved cache budget, safe to use from its own goroutine
// beside other sessions. The concrete types (BTreeSession, StoreSession,
// ShardedSession) add index-specific extras such as Warm.
type Session = index.Session

// Scanner is the stream shape every Index.Scan returns: records in key
// order, Close releasing the scan's frames (and, for stores, its
// generation pin). The concrete scanners implement it.
type Scanner = index.Scanner

// The serving implementations satisfy the unified API.
var (
	_ Index   = (*BTree)(nil)
	_ Index   = (*Store)(nil)
	_ Index   = (*ShardedTree)(nil)
	_ Index   = (*ShardedStore)(nil)
	_ Session = (*BTreeSession)(nil)
	_ Session = (*StoreSession)(nil)
	_ Session = (*ShardedSession)(nil)
	_ Scanner = (*BTreeScanner)(nil)
	_ Scanner = (*StoreScanner)(nil)
	_ Scanner = (*ShardedScanner)(nil)
)

// ---------------------------------------------------------------------------
// Online dictionaries (survey §6: B-trees, hashing)
// ---------------------------------------------------------------------------

// BTree is an on-volume B+-tree over uint64 keys and values: Search, Insert,
// Delete in Θ(log_B N) I/Os; Range in Θ(log_B N + Z/B). Its read side is
// built for serving: GetBatch (deduplicated, disk-parallel batched
// lookups), NewScanner/RangePrefetch (forecasting leaf-chain scans), Warm
// (resident internal levels), Min/Max, and NewSession (concurrent read
// handles) — see the package comment's serving-queries section.
type BTree = btree.Tree

// NewBTree creates an empty B+-tree whose node cache holds cacheFrames
// blocks drawn from pool. It is the positional shorthand for NewBTreeWith,
// and takes cacheFrames literally: below 3 is an error, zero included.
func NewBTree(vol *Volume, pool *Pool, cacheFrames int) (*BTree, error) {
	if cacheFrames < 3 {
		return nil, fmt.Errorf("em: B-tree cache needs >= 3 frames, got %d", cacheFrames)
	}
	return btree.New(vol, pool, &btree.Options{CacheFrames: cacheFrames})
}

// BTreeOptions tunes NewBTreeWith, mirroring the options forms the bulk
// loader and store already take: CacheFrames is the node cache's budget
// (zero means 8; below 3 is an error) and Width the default striping for
// the tree's interface-form Scan and NewSession (zero means the volume's
// disk count).
type BTreeOptions = btree.Options

// NewBTreeWith creates an empty B+-tree with options-driven defaults; nil
// options take every default.
func NewBTreeWith(vol *Volume, pool *Pool, opts *BTreeOptions) (*BTree, error) {
	return btree.New(vol, pool, opts)
}

// ScanOptions tunes BTree.NewScanner and RangePrefetch: Width is the
// number of leaf reads kept in flight (zero means the volume's disk
// count); the scan holds 2×Width pool frames.
type ScanOptions = btree.ScanOptions

// BTreeScanner streams a key range in order with its leaf reads batched
// and kept in flight. It implements the stream Source shape over Record,
// so a scan can feed anything a file reader can. NextBatch hands out the
// rest of the current leaf's records at once, never crossing a leaf, so a
// caller draining it that way holds one leaf of decoded records, at most
// one block of bytes, on the heap beside the scan's 2×Width pool frames;
// Next and NextBatch may interleave and read the same blocks.
type BTreeScanner = btree.Scanner

// BTreeSession is a read-only query handle over a shared BTree: a private
// buffer manager and scanner budget reserved up front, safe to use from
// its own goroutine beside other sessions. See BTree.NewSession.
type BTreeSession = btree.Session

// BulkLoadOptions tunes BulkLoadBTreeWith's streams: Width stripes the
// input reads and the leaf writes over the disks. By the depth rule (see
// the package comment), the input reader keeps the next block group of the
// sorted run in flight (forecasting read-ahead, 2×Width pool frames) while
// leaves are packed and nodes written back, whenever the pool holds those
// frames beyond the loader's own budget. The leaves always go Width at a
// time through the async engine, write-behind, in another 2×Width frames
// (see the package comment's write-optimal index construction section).
// Counted I/Os are identical at every width and depth. Async and
// WriteBehind are deprecated no-ops.
type BulkLoadOptions = btree.BulkLoadOptions

// BulkLoadBTreeWith builds a B+-tree bottom-up from a key-sorted record
// file in Θ(N/B) I/Os — versus Θ(N log_B N) for repeated insertion
// (experiment T9). Nil options read the input and write the leaves one
// block per batch. On any error — unsorted input, failed read or write,
// exhausted pool — every block and frame the load took is returned and
// any in-flight leaf batch is waited out, so the pool is exactly as it
// was.
func BulkLoadBTreeWith(vol *Volume, pool *Pool, cacheFrames int, sorted *File[Record], opts *BulkLoadOptions) (*BTree, error) {
	return btree.BulkLoad(vol, pool, cacheFrames, sorted, opts)
}

// ErrUnsortedInput reports a bulk-load input that is not strictly
// increasing by key (duplicates included).
var ErrUnsortedInput = btree.ErrUnsortedInput

// HashTable is an extendible-hashing dictionary: O(1) expected probes per
// lookup, versus the B-tree's Θ(log_B N).
type HashTable = hashing.Table

// NewHashTable creates an empty extendible hash table.
func NewHashTable(vol *Volume, pool *Pool, cacheFrames int) (*HashTable, error) {
	return hashing.New(vol, pool, cacheFrames)
}

// ---------------------------------------------------------------------------
// Batched updates and priority queues (survey §7: buffer trees)
// ---------------------------------------------------------------------------

// BufferTree is Arge's buffer tree: inserts and deletes cost amortised
// O((1/B)·log_{M/B}(N/B)) I/Os — a factor ≈ B·log better than a B-tree's
// per-operation bound. Seal flushes everything and returns the sorted
// contents.
type BufferTree = buffertree.Tree

// BufferTreeConfig tunes a buffer tree's fanout and per-node buffer size.
type BufferTreeConfig = buffertree.Config

// NewBufferTree creates an empty buffer tree.
func NewBufferTree(vol *Volume, pool *Pool, cfg BufferTreeConfig) (*BufferTree, error) {
	return buffertree.New(vol, pool, cfg)
}

// Store is the online updatable key-value index: an in-memory write front
// over reference-counted B-tree generations — an old one and at most one
// young one, by the logarithmic method — drained in the background.
// Inserts and deletes cost no I/O until the drain, which rewrites the
// young generation for most fronts and the whole old one every k-th
// (Drain and StartDrain always compact into one generation); reads see
// every operation accepted before them, through drains included. Buffered
// operations are not durable.
type Store = store.Store

// StoreConfig tunes the store's seal threshold, cache and striping widths,
// and admission control.
type StoreConfig = store.Config

// StoreScanner is a consistent snapshot range scan over a Store. It reads
// each generation through a scan session of its own: 3 + 2·Width frames of
// the store's pool until Close, twice that when the young generation holds
// a live key in its range.
type StoreScanner = store.Scanner

// StoreSession is a point-read handle with a private cache budget that
// re-pins itself across generation handovers. Its reads take the Store's
// own route — front, sealed front and young directory in memory, each
// behind a Bloom filter of its keys that rules out most misses at one
// cache line, then the young tree through its shared cache — and differ
// only in reading the old tree through the session's cache. Its budget, cacheFrames + 2·width
// at NewSession's arguments (CacheFrames and Width by default), is
// carved from the store's pool until Close.
type StoreSession = store.Session

// ErrStoreClosed reports an operation on a closed Store.
var ErrStoreClosed = store.ErrClosed

// OpenStore creates a store on vol; the background drain's budget is
// carved from pool up front, like SortIndex's loader budget. It is the
// most a drain opens at its half-width striping w = max(1, Width/2): two
// sessions that scan the old and the young generation, 3 + 2·w frames
// each (a scanner's cache holds only its descent path), and one bulk
// loader, CacheFrames + 2·w frames — CacheFrames + 6·w + 6 in all. Beyond
// it the pool must hold three generation caches of CacheFrames (old,
// young, and the one a handover warms before it swaps in) plus what
// readers pin, 3 + 2·Width frames per open StoreScanner among them (twice
// that for one whose range holds a live young key); a
// handover that finds them short fails the drain with ErrNoFrames, after
// which the store refuses writes.
func OpenStore(vol *Volume, pool *Pool, cfg StoreConfig) (*Store, error) {
	return store.Open(vol, pool, cfg)
}

// ---------------------------------------------------------------------------
// Sharded serving (range partitioning across volumes)
// ---------------------------------------------------------------------------

// ShardedTree serves the Index surface over S read-only B+-trees
// range-partitioned across independent volumes: routed Gets, merge-cut
// concurrent GetBatch, stitched Scans, composed sessions, aggregated
// Stats. See the package comment's sharded-serving section.
type ShardedTree = shard.Tree

// ShardedTreeOptions configures NewShardedTree; Splits are the S-1
// strictly increasing partition boundaries (shard i owns keys in
// [Splits[i-1], Splits[i])).
type ShardedTreeOptions = shard.TreeOptions

// ShardedStore is the updatable sharded index: one Store per shard, each
// on its own volume with its own background drain. Writes route to the
// owning shard's write front; reads serve the Index surface.
type ShardedStore = shard.Store

// ShardedStoreOptions configures OpenShardedStore: the partition
// boundaries plus the per-shard StoreConfig.
type ShardedStoreOptions = shard.StoreOptions

// ShardedScanner stitches per-shard scanners into one key-ordered stream —
// range partitioning makes concatenation in shard order the merge. A tree
// shard is drained a leaf at a time through BTreeScanner.NextBatch into
// one buffer reused across shards, so the stitched scan holds one leaf of
// decoded records, at most one block of bytes, on the heap beside the open
// shard scanner's 2×Width pool frames; a store shard is read a record at a
// time.
type ShardedScanner = shard.Scanner

// ShardedSession composes per-shard read sessions, each with its own
// reserved budget on its shard's pool; batches fan out across them.
type ShardedSession = shard.Session

// NewShardedTree assembles a sharded serving facade over per-shard trees
// built separately (each on its own volume); every key a shard's tree
// holds must fall in the shard's split interval. The trees are used in
// place; the caller keeps ownership of their volumes and pools.
func NewShardedTree(shards []*BTree, opts *ShardedTreeOptions) (*ShardedTree, error) {
	return shard.NewTree(shards, opts)
}

// OpenShardedStore opens one store per volume — vols[i] and pools[i] back
// shard i — behind the sharded facade. Each shard's drain budget (see
// OpenStore) is reserved from its own pool at open, and its drains run
// independently.
func OpenShardedStore(vols []*Volume, pools []*Pool, opts *ShardedStoreOptions) (*ShardedStore, error) {
	return shard.OpenStore(vols, pools, opts)
}

// PQ is an external-memory priority queue (merge-based): N inserts and N
// delete-mins cost O(Sort(N)) I/Os in total.
type PQ = pqueue.Queue

// NewPQ creates an empty external priority queue.
func NewPQ(vol *Volume, pool *Pool) (*PQ, error) { return pqueue.New(vol, pool) }

// ---------------------------------------------------------------------------
// Graphs and lists (survey §8)
// ---------------------------------------------------------------------------

// Graph is a static graph stored as a sorted adjacency file on a volume.
type Graph = emgraph.Graph

// BuildGraph builds a directed graph on v vertices from an arc file.
func BuildGraph(vol *Volume, pool *Pool, v int64, arcs *File[Pair]) (*Graph, error) {
	return emgraph.Build(vol, pool, v, arcs)
}

// BuildUndirectedGraph builds an undirected graph (each edge stored both
// ways) on v vertices from an edge file.
func BuildUndirectedGraph(vol *Volume, pool *Pool, v int64, edges *File[Pair]) (*Graph, error) {
	return emgraph.BuildUndirected(vol, pool, v, edges)
}

// BFS runs external breadth-first search from src on a (possibly directed)
// graph, returning (vertex, level) pairs sorted by vertex.
func BFS(g *Graph, pool *Pool, src int64) (*File[Pair], error) {
	return emgraph.BFS(g, pool, src)
}

// BFSUndirected is the Munagala–Ranade external BFS exactly as the survey
// states it — O(V + Sort(E)) I/Os — valid on undirected graphs only.
func BFSUndirected(g *Graph, pool *Pool, src int64) (*File[Pair], error) {
	return emgraph.BFSUndirected(g, pool, src)
}

// NaiveBFS is the baseline: textbook BFS probing an on-disk visited bitmap
// once per arc, Θ(V + E) I/Os.
func NaiveBFS(g *Graph, pool *Pool, src int64) (*File[Pair], error) {
	return emgraph.NaiveBFS(g, pool, src)
}

// ConnectedComponents labels every vertex of an undirected graph with the
// smallest vertex id in its component.
func ConnectedComponents(g *Graph, pool *Pool) (*File[Pair], error) {
	return emgraph.ConnectedComponents(g, pool)
}

// GridEdges generates the edges of a rows×cols grid graph, the canonical
// large-diameter BFS workload.
func GridEdges(vol *Volume, pool *Pool, rows, cols int) (*File[Pair], error) {
	return emgraph.GridEdges(vol, pool, rows, cols)
}

// ListTail is the successor value marking the end of a linked list.
const ListTail = listrank.Tail

// RankList computes each node's distance from the head of an on-disk linked
// list in O(Sort(N)) I/Os by independent-set contraction.
func RankList(list *File[Pair], pool *Pool, head int64) (*File[Pair], error) {
	return listrank.Rank(list, pool, head)
}

// RankListNaive chases pointers one random block read per node: Θ(N) I/Os.
func RankListNaive(list *File[Pair], pool *Pool, head int64) (*File[Pair], error) {
	return listrank.NaiveRank(list, pool, head)
}

// ---------------------------------------------------------------------------
// Batched geometry (survey §5: distribution sweep)
// ---------------------------------------------------------------------------

// Segment is an axis-parallel segment for the geometry algorithms.
type Segment = geometry.Segment

// SegmentCodec is the Codec for Segment.
type SegmentCodec = geometry.SegmentCodec

// HSeg constructs a horizontal segment from (x1,y) to (x2,y).
func HSeg(id int64, x1, x2, y float64) Segment { return geometry.Horizontal(id, x1, x2, y) }

// VSeg constructs a vertical segment from (x,y1) to (x,y2).
func VSeg(id int64, x, y1, y2 float64) Segment { return geometry.Vertical(id, x, y1, y2) }

// Intersections reports all horizontal/vertical crossing pairs by
// distribution sweep in O(Sort(N) + Z/B) I/Os.
func Intersections(segs *File[Segment], pool *Pool) (*File[Pair], error) {
	return geometry.Intersections(segs, pool)
}

// NaiveIntersections is the all-pairs baseline, Θ(N²/B) I/Os.
func NaiveIntersections(segs *File[Segment], pool *Pool) (*File[Pair], error) {
	return geometry.NaiveIntersections(segs, pool)
}

// ---------------------------------------------------------------------------
// Elementary collections, tree computations, and the FFT
// ---------------------------------------------------------------------------

// ExtStack is an external-memory stack: amortised O(1/B) I/Os per
// push/pop via two-block buffering.
type ExtStack[T any] = extcoll.Stack[T]

// ExtQueue is an external-memory FIFO queue: amortised O(1/B) I/Os per op.
type ExtQueue[T any] = extcoll.Queue[T]

// NewExtStack creates an empty external stack on vol.
func NewExtStack[T any](vol *Volume, pool *Pool, codec Codec[T]) (*ExtStack[T], error) {
	return extcoll.NewStack(vol, pool, codec)
}

// NewExtQueue creates an empty external queue on vol.
func NewExtQueue[T any](vol *Volume, pool *Pool, codec Codec[T]) (*ExtQueue[T], error) {
	return extcoll.NewQueue(vol, pool, codec)
}

// EulerTour is a rooted tree linearised for list-ranking computations.
type EulerTour = emtree.Tour

// BuildEulerTour linearises a rooted tree given as (parent, child) pairs in
// O(Sort(N)) I/Os.
func BuildEulerTour(edges *File[Pair], pool *Pool, n, root int64) (*EulerTour, error) {
	return emtree.BuildEulerTour(edges, pool, n, root)
}

// TreeDepths computes every node's depth via the Euler-tour technique in
// O(Sort(N)) I/Os.
func TreeDepths(t *EulerTour, pool *Pool) (*File[Pair], error) {
	return emtree.Depths(t, pool)
}

// TreeSubtreeSizes computes every node's subtree size via the Euler-tour
// technique in O(Sort(N)) I/Os.
func TreeSubtreeSizes(t *EulerTour, pool *Pool) (*File[Pair], error) {
	return emtree.SubtreeSizes(t, pool)
}

// RankListWeighted ranks a weighted on-disk linked list — rank(x) is the
// sum of edge weights from head — in O(Sort(N)) I/Os.
func RankListWeighted(list *File[Triple], pool *Pool, head int64) (*File[Pair], error) {
	return listrank.RankWeighted(list, pool, head)
}

// Combine computes a DAG vertex's value from its in-neighbours' values
// (given in ascending order) for time-forward processing.
type Combine = timefwd.Combine

// TimeForwardEval evaluates a topologically-numbered DAG stored on disk by
// time-forward processing — values travel to their consumers through an
// external priority queue — in O(Sort(E)) I/Os.
func TimeForwardEval(vol *Volume, pool *Pool, v int64, arcs *File[Pair], fn Combine) (*File[Pair], error) {
	return timefwd.Eval(vol, pool, v, arcs, fn)
}

// TimeForwardEvalNaive is the baseline that reads each predecessor's value
// with a random block I/O per arc: Θ(E) I/Os.
func TimeForwardEvalNaive(vol *Volume, pool *Pool, v int64, arcs *File[Pair], fn Combine) (*File[Pair], error) {
	return timefwd.EvalNaive(vol, pool, v, arcs, fn)
}

// Complex is a complex sample for the external FFT.
type Complex = fft.Complex

// ComplexCodec is the Codec for Complex.
type ComplexCodec = fft.ComplexCodec

// FFT computes the forward DFT of a power-of-two-length file with the
// six-step external algorithm: O(Sort(N)) I/Os (requires √N ≤ M).
func FFT(f *File[Complex], pool *Pool) (*File[Complex], error) {
	return fft.Forward(f, pool)
}

// InverseFFT computes the scaled inverse DFT, so InverseFFT(FFT(x)) = x.
func InverseFFT(f *File[Complex], pool *Pool) (*File[Complex], error) {
	return fft.Inverse(f, pool)
}

// FFTNaiveStages is the unblocked butterfly baseline, Θ(N·log₂N) I/Os.
func FFTNaiveStages(f *File[Complex], pool *Pool) (*File[Complex], error) {
	return fft.NaiveStages(f, pool, -1)
}

// ---------------------------------------------------------------------------
// Paging (survey §2.2: memory hierarchy management)
// ---------------------------------------------------------------------------

// FaultsLRU counts page faults of least-recently-used eviction on a
// reference string with the given frame count.
func FaultsLRU(refs []int64, frames int) int { return cache.FaultsLRU(refs, frames) }

// FaultsFIFO counts page faults of first-in-first-out eviction.
func FaultsFIFO(refs []int64, frames int) int { return cache.FaultsFIFO(refs, frames) }

// FaultsCLOCK counts page faults of the CLOCK (second-chance) policy.
func FaultsCLOCK(refs []int64, frames int) int { return cache.FaultsCLOCK(refs, frames) }

// FaultsMIN counts page faults of Belady's optimal offline policy, the
// lower bound every online policy is compared against.
func FaultsMIN(refs []int64, frames int) int { return cache.FaultsMIN(refs, frames) }
