package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	strip "github.com/stripdb/strip"
	"github.com/stripdb/strip/client"
)

// The repl experiment measures read scale-out over WAL-shipping replicas
// as a weak-scaling sweep: a durable primary takes a steady update stream
// while a fixed open-loop reader population PER NODE hits each of n warm
// standbys (n = 0 reads the primary itself — the baseline). Offered read
// load therefore grows with the cluster, and each cell verifies the
// cluster sustains it: read qps tracks the offered rate, read latency
// percentiles stay bounded (no queueing collapse), and the replication lag
// distribution sampled from the followers stays within a few heartbeat
// intervals — followers replay an O(|delta|) redo stream, not full state.
//
// Latency is measured from each request's scheduled send time, so a
// saturated node is charged its queueing delay (no coordinated omission).

type replRun struct {
	Replicas int `json:"replicas"`
	Readers  int `json:"readers"`

	Reads        int64   `json:"reads"`
	ReplicaReads int64   `json:"replica_reads"`
	ReadQPS      float64 `json:"read_qps"`
	P50Micros    int64   `json:"p50_micros"`
	P95Micros    int64   `json:"p95_micros"`
	P99Micros    int64   `json:"p99_micros"`

	Writes   int64   `json:"writes"`
	WriteQPS float64 `json:"write_qps"`

	LagP50Micros int64 `json:"lag_p50_micros"`
	LagP95Micros int64 `json:"lag_p95_micros"`
	Resyncs      int64 `json:"resyncs"`
}

type replResult struct {
	Experiment string    `json:"experiment"`
	Scale      string    `json:"scale"`
	Rows       int       `json:"rows"`
	DurationMs float64   `json:"duration_ms"`
	Runs       []replRun `json:"runs"`

	// ReadScaling is read qps at the largest replica count divided by the
	// replica-free baseline; MaxLagP95Micros is the worst lag p95 seen in
	// any cell.
	ReadScalingReplicas int     `json:"read_scaling_replicas"`
	ReadScaling         float64 `json:"read_scaling"`
	MaxLagP95Micros     int64   `json:"max_lag_p95_micros"`
}

// replOnce runs one replica-count cell: a fresh primary, n converged
// standbys, and perNode open-loop readers against each serving node for
// roughly d.
func replOnce(replicas, perNode, rows int, arrival, d time.Duration) (replRun, error) {
	nodes := replicas
	if nodes == 0 {
		nodes = 1
	}
	readers := perNode * nodes
	pdir, err := os.MkdirTemp("", "replbench-p-")
	if err != nil {
		return replRun{}, err
	}
	defer os.RemoveAll(pdir) //nolint:errcheck

	primary, err := strip.Open(strip.Config{
		Workers:    2,
		DataDir:    pdir,
		ListenAddr: "127.0.0.1:0",
		Serve:      strip.ServeOptions{MaxConns: readers + 16, MaxInflight: readers + 16},
	})
	if err != nil {
		return replRun{}, err
	}
	defer primary.Close() //nolint:errcheck

	primary.MustExec(`create table kv (k text, v int)`)
	primary.MustExec(`create index on kv (k)`)
	for i := 0; i < rows; i++ {
		primary.MustExec(fmt.Sprintf(`insert into kv values ('k%04d', %d)`, i, i))
	}

	// Bring up the standbys and wait for convergence before measuring.
	stands := make([]*strip.DB, replicas)
	for i := range stands {
		rd, err := os.MkdirTemp("", "replbench-r-")
		if err != nil {
			return replRun{}, err
		}
		defer os.RemoveAll(rd) //nolint:errcheck
		r, err := strip.Open(strip.Config{
			Workers:    2,
			DataDir:    rd,
			ListenAddr: "127.0.0.1:0",
			ReplicaOf:  primary.ServerAddr(),
			Repl:       strip.ReplOptions{Heartbeat: 5 * time.Millisecond},
			Serve:      strip.ServeOptions{MaxConns: readers + 16, MaxInflight: readers + 16},
		})
		if err != nil {
			return replRun{}, err
		}
		defer r.Close() //nolint:errcheck
		stands[i] = r
	}
	for i, r := range stands {
		deadline := time.Now().Add(30 * time.Second)
		for {
			res, err := r.Exec(`select count(k) as n from kv`)
			if err == nil && len(res.Rows) == 1 && int(res.Rows[0][0].Float()) >= rows {
				break
			}
			if time.Now().After(deadline) {
				return replRun{}, fmt.Errorf("replica %d never converged", i)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Readers hit the standbys round-robin; with no standbys they hit the
	// primary and contend with its writer.
	endpoints := []string{primary.ServerAddr()}
	if replicas > 0 {
		endpoints = endpoints[:0]
		for _, r := range stands {
			endpoints = append(endpoints, r.ServerAddr())
		}
	}
	conns := make([]*client.Client, readers)
	for i := range conns {
		c, err := client.Dial(endpoints[i%len(endpoints)], client.Options{DialTimeout: 10 * time.Second})
		if err != nil {
			return replRun{}, err
		}
		defer c.Close() //nolint:errcheck
		conns[i] = c
	}

	// Steady primary writes keep the redo stream (and the followers) busy.
	var stop atomic.Bool
	var writes int64
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 0; !stop.Load(); i++ {
			k := fmt.Sprintf("k%04d", i%rows)
			primary.MustExec(`update kv set v = v + 1 where k = '` + k + `'`)
			atomic.AddInt64(&writes, 1)
			time.Sleep(time.Millisecond)
		}
	}()

	// Lag sampler: the follower-side gauge, polled while the workload runs.
	var lagMu sync.Mutex
	var lagSamples []int64
	var samplerWG sync.WaitGroup
	if replicas > 0 {
		samplerWG.Add(1)
		go func() {
			defer samplerWG.Done()
			for !stop.Load() {
				for _, r := range stands {
					if st, ok := r.ReplStatus(); ok && st.LagMicros >= 0 && st.LagMicros < math.MaxInt64/4 {
						lagMu.Lock()
						lagSamples = append(lagSamples, st.LagMicros)
						lagMu.Unlock()
					}
				}
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}

	mix := []string{
		`select v from kv where k = 'k0001'`,
		`select count(k) as n from kv`,
		`select v from kv where k = 'k0007'`,
	}
	lats := make([][]int64, readers)
	var done int64
	var runErr atomic.Value
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			next := start
			for {
				now := time.Now()
				if now.After(end) {
					return
				}
				if now.Before(next) {
					time.Sleep(next.Sub(now))
				}
				if _, err := c.Query(mix[len(lats[i])%len(mix)]); err != nil {
					runErr.Store(fmt.Errorf("reader %d: %w", i, err))
					return
				}
				lats[i] = append(lats[i], time.Since(next).Microseconds())
				next = next.Add(arrival)
				atomic.AddInt64(&done, 1)
			}
		}(i, c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	stop.Store(true)
	writerWG.Wait()
	samplerWG.Wait()
	if err, _ := runErr.Load().(error); err != nil {
		return replRun{}, err
	}

	var all []int64
	for _, l := range lats {
		all = append(all, l...)
	}

	run := replRun{
		Replicas:     replicas,
		Readers:      readers,
		Reads:        done,
		ReadQPS:      float64(done) / elapsed.Seconds(),
		P50Micros:    pct(all, 50),
		P95Micros:    pct(all, 95),
		P99Micros:    pct(all, 99),
		Writes:       atomic.LoadInt64(&writes),
		WriteQPS:     float64(atomic.LoadInt64(&writes)) / elapsed.Seconds(),
		LagP50Micros: pct(lagSamples, 50),
		LagP95Micros: pct(lagSamples, 95),
	}
	if replicas > 0 {
		run.ReplicaReads = done
		for _, r := range stands {
			if st, ok := r.ReplStatus(); ok {
				run.Resyncs += st.Resyncs
			}
		}
	}
	return run, nil
}

func runReplBench(metricsPath, scale string, progress func(string)) {
	rows, d, perNode, arrival := 2048, 1500*time.Millisecond, 8, 8*time.Millisecond
	sweep := []int{0, 1, 2, 3}
	if scale == "small" {
		rows, d, perNode, arrival = 512, 700*time.Millisecond, 6, 2*time.Millisecond
		sweep = []int{0, 1, 2}
	}

	res := replResult{
		Experiment: "repl",
		Scale:      scale,
		Rows:       rows,
		DurationMs: float64(d.Microseconds()) / 1000,
	}
	qps := map[int]float64{}
	for _, n := range sweep {
		run, err := replOnce(n, perNode, rows, arrival, d)
		if err != nil {
			fail(err)
		}
		qps[n] = run.ReadQPS
		res.Runs = append(res.Runs, run)
		if run.LagP95Micros > res.MaxLagP95Micros {
			res.MaxLagP95Micros = run.LagP95Micros
		}
		if progress != nil {
			progress(fmt.Sprintf("repl replicas=%d readers=%d read_qps=%.0f p95=%dµs lag_p95=%dµs writes=%d",
				run.Replicas, run.Readers, run.ReadQPS, run.P95Micros, run.LagP95Micros, run.Writes))
		}
	}

	maxN := sweep[len(sweep)-1]
	res.ReadScalingReplicas = maxN
	if base := qps[0]; base > 0 {
		res.ReadScaling = qps[maxN] / base
	}

	fmt.Printf("%9s %8s %12s %10s %10s %12s %12s\n",
		"replicas", "readers", "read_qps", "p95_µs", "p99_µs", "lag_p95_µs", "write_qps")
	for _, r := range res.Runs {
		fmt.Printf("%9d %8d %12.0f %10d %10d %12d %12.0f\n",
			r.Replicas, r.Readers, r.ReadQPS, r.P95Micros, r.P99Micros, r.LagP95Micros, r.WriteQPS)
	}
	fmt.Printf("read scale-out at %d replicas: %.2fx; worst lag p95: %dµs\n",
		maxN, res.ReadScaling, res.MaxLagP95Micros)

	if metricsPath == "" {
		return
	}
	f, err := os.Create(metricsPath)
	if err != nil {
		fail(err)
	}
	defer f.Close() //nolint:errcheck
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&res); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", metricsPath)
}
