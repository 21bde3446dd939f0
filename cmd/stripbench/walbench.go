package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	strip "github.com/stripdb/strip"
)

// walMetrics is the durability section of the metrics artifact: the cost of
// turning the write-ahead log on, and how well group commit amortizes fsyncs.
type walMetrics struct {
	Commits int `json:"commits"`

	// Sequential single-tuple writes, in-memory vs durable (µs).
	MemP50 int64 `json:"mem_commit_p50_us"`
	MemP95 int64 `json:"mem_commit_p95_us"`
	MemP99 int64 `json:"mem_commit_p99_us"`
	WalP50 int64 `json:"wal_commit_p50_us"`
	WalP95 int64 `json:"wal_commit_p95_us"`
	WalP99 int64 `json:"wal_commit_p99_us"`
	// OverheadP50 is wal_p50 - mem_p50: the median per-commit durability tax.
	OverheadP50 int64 `json:"commit_overhead_p50_us"`

	SeqFsyncs          int64   `json:"seq_fsyncs"`
	SeqCommitsPerFsync float64 `json:"seq_commits_per_fsync"`

	// Concurrent committers: group-commit batch-size distribution.
	GroupWorkers         int     `json:"group_workers"`
	GroupCommits         int     `json:"group_commits"`
	GroupP50             int64   `json:"group_commit_p50_us"`
	GroupP95             int64   `json:"group_commit_p95_us"`
	GroupBatchP50        int64   `json:"group_batch_p50"`
	GroupBatchP95        int64   `json:"group_batch_p95"`
	GroupBatchMax        int64   `json:"group_batch_max"`
	GroupFsyncs          int64   `json:"group_fsyncs"`
	GroupCommitsPerFsync float64 `json:"group_commits_per_fsync"`

	FsyncP50 int64 `json:"fsync_p50_us"`
	FsyncP95 int64 `json:"fsync_p95_us"`
	LogBytes int64 `json:"log_bytes"`

	// Profiles keeps the artifact schema uniform across experiments; the
	// wal workload installs no rules, so this is normally omitted.
	Profiles []strip.RuleProfile `json:"rule_profiles,omitempty"`
}

// runWalBench measures the paper's Table 1 "simple 1-tuple update" workload
// with durability on: per-commit latency against an in-memory engine, the
// same against a WAL-backed engine, and group-commit batching under
// concurrent committers. It prints a Table-1-style summary and, when
// metricsPath is non-empty, writes a {"wal": ...} artifact.
func runWalBench(metricsPath string, progress func(string)) {
	const (
		seqCommits = 2000
		workers    = 8
		perWorker  = 500
		groupEvery = 64
	)
	say := func(s string) {
		if progress != nil {
			progress(s)
		}
	}
	m := walMetrics{Commits: seqCommits, GroupWorkers: workers, GroupCommits: workers * perWorker}

	// Baseline: purely in-memory commits.
	say("wal: sequential baseline (in-memory)")
	mem := strip.MustOpen(strip.Config{Workers: 1})
	memLat := seqWrites(mem, seqCommits)
	mem.Close()
	m.MemP50, m.MemP95, m.MemP99 = pct(memLat, 50), pct(memLat, 95), pct(memLat, 99)

	// Durable sequential: every commit waits for its fsync batch.
	say("wal: sequential durable commits")
	dir, err := os.MkdirTemp("", "stripbench-wal-*")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)
	db := strip.MustOpen(strip.Config{Workers: 1, DataDir: dir,
		Sync: strip.SyncPolicy{Every: groupEvery}})
	walLat := seqWrites(db, seqCommits)
	m.WalP50, m.WalP95, m.WalP99 = pct(walLat, 50), pct(walLat, 95), pct(walLat, 99)
	m.Profiles = db.RuleProfiles()
	m.OverheadP50 = m.WalP50 - m.MemP50
	if info, ok := db.WalInfo(); ok {
		m.SeqFsyncs = info.Fsyncs
		if info.Fsyncs > 0 {
			m.SeqCommitsPerFsync = float64(seqCommits) / float64(info.Fsyncs)
		}
	}
	db.Close()

	// Concurrent committers: group commit should amortize fsyncs.
	say(fmt.Sprintf("wal: %d concurrent committers", workers))
	gdir, err := os.MkdirTemp("", "stripbench-walg-*")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(gdir)
	gdb := strip.MustOpen(strip.Config{Workers: 1, DataDir: gdir,
		Sync: strip.SyncPolicy{Every: groupEvery}})
	// One table per worker: exclusive table locks are held until a commit is
	// durable, so committers on a shared table would serialize and group
	// commit could never batch. Independent tables let commits overlap, which
	// is the scenario group commit exists for.
	for w := 0; w < workers; w++ {
		if err := gdb.CreateTable(fmt.Sprintf("bench%d", w),
			strip.Column{Name: "w", Type: "INT"}, strip.Column{Name: "i", Type: "INT"}); err != nil {
			fail(err)
		}
	}
	preFsyncs := int64(0)
	if info, ok := gdb.WalInfo(); ok {
		preFsyncs = info.Fsyncs
	}
	var wg sync.WaitGroup
	lats := make([][]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			table := fmt.Sprintf("bench%d", w)
			lats[w] = make([]int64, 0, perWorker)
			for i := 0; i < perWorker; i++ {
				start := time.Now()
				if err := gdb.Insert(table, strip.Int(int64(w)), strip.Int(int64(i))); err != nil {
					fail(err)
				}
				lats[w] = append(lats[w], time.Since(start).Microseconds())
			}
		}(w)
	}
	wg.Wait()
	var groupLat []int64
	for _, l := range lats {
		groupLat = append(groupLat, l...)
	}
	m.GroupP50, m.GroupP95 = pct(groupLat, 50), pct(groupLat, 95)
	if info, ok := gdb.WalInfo(); ok {
		m.GroupBatchP50 = info.GroupBatch.P50
		m.GroupBatchP95 = info.GroupBatch.P95
		m.GroupBatchMax = info.GroupBatch.Max
		m.GroupFsyncs = info.Fsyncs - preFsyncs
		if m.GroupFsyncs > 0 {
			m.GroupCommitsPerFsync = float64(m.GroupCommits) / float64(m.GroupFsyncs)
		}
		m.FsyncP50 = info.FsyncMicros.P50
		m.FsyncP95 = info.FsyncMicros.P95
		m.LogBytes = info.LogBytes
	}
	gdb.Close()

	fmt.Println("Durability: single-tuple write commit latency (measured, µs)")
	fmt.Printf("  %-28s %8s %8s %8s\n", "", "p50", "p95", "p99")
	fmt.Printf("  %-28s %8d %8d %8d\n", "in-memory", m.MemP50, m.MemP95, m.MemP99)
	fmt.Printf("  %-28s %8d %8d %8d\n", "wal (fsync per batch)", m.WalP50, m.WalP95, m.WalP99)
	fmt.Printf("  %-28s %8d\n", "durability tax (p50)", m.OverheadP50)
	fmt.Printf("  sequential: %d commits, %d fsyncs (%.1f commits/fsync)\n",
		m.Commits, m.SeqFsyncs, m.SeqCommitsPerFsync)
	fmt.Printf("group commit: %d workers x %d commits\n", workers, perWorker)
	fmt.Printf("  commit latency p50=%dµs p95=%dµs\n", m.GroupP50, m.GroupP95)
	fmt.Printf("  batch size    p50=%d p95=%d max=%d\n", m.GroupBatchP50, m.GroupBatchP95, m.GroupBatchMax)
	fmt.Printf("  %d fsyncs (%.1f commits/fsync), fsync p50=%dµs p95=%dµs, log %d bytes\n",
		m.GroupFsyncs, m.GroupCommitsPerFsync, m.FsyncP50, m.FsyncP95, m.LogBytes)

	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]walMetrics{"wal": m}); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote metrics artifact: %s (wal section)\n", metricsPath)
	}
}

// seqWrites runs n single-row insert transactions and returns per-commit
// latencies in microseconds.
func seqWrites(db *strip.DB, n int) []int64 {
	if err := db.CreateTable("bench", strip.Column{Name: "k", Type: "INT"}, strip.Column{Name: "v", Type: "INT"}); err != nil {
		fail(err)
	}
	lat := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := db.Insert("bench", strip.Int(int64(i)), strip.Int(int64(i))); err != nil {
			fail(err)
		}
		lat = append(lat, time.Since(start).Microseconds())
	}
	return lat
}
