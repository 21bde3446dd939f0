package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	strip "github.com/stripdb/strip"
	"github.com/stripdb/strip/client"
	"github.com/stripdb/strip/internal/obs"
)

// The serve experiment measures stripd under an open-loop read sweep: n
// remote clients each issue SELECTs on a fixed arrival schedule (latency
// is measured from the scheduled send time, so queueing delay is charged —
// no coordinated omission). Every QUERY frame runs its own read-only
// snapshot transaction, so past the executor's capacity qps flattens and
// latency grows with the queue. A low-rate writer keeps LSNs advancing so
// snapshot reads exercise real version chains.

type serveRun struct {
	Clients int `json:"clients"`

	Queries   int64   `json:"queries"`
	QPS       float64 `json:"qps"`
	P50Micros int64   `json:"p50_micros"`
	P95Micros int64   `json:"p95_micros"`
	P99Micros int64   `json:"p99_micros"`

	SnapshotScans int64 `json:"snapshot_scans"`
	BusyRejected  int64 `json:"busy_rejected"`
}

type serveResult struct {
	Experiment string     `json:"experiment"`
	Scale      string     `json:"scale"`
	Rows       int        `json:"rows"`
	IntervalUs int64      `json:"arrival_interval_micros"`
	DurationMs float64    `json:"duration_ms"`
	Runs       []serveRun `json:"runs"`
}

// serveArrival is each client's request schedule: one query per interval.
const serveArrival = 4 * time.Millisecond

// serveOnce runs one client-count cell on a fresh server for roughly d.
func serveOnce(clients, rows int, d time.Duration) (serveRun, error) {
	db, err := strip.Open(strip.Config{
		Workers:    2,
		ListenAddr: "127.0.0.1:0",
		Serve: strip.ServeOptions{
			MaxConns:    clients + 16,
			MaxInflight: clients + 16,
		},
	})
	if err != nil {
		return serveRun{}, err
	}
	defer db.Close() //nolint:errcheck

	db.MustExec(`create table positions (sym text, value float)`)
	for i := 0; i < rows; i++ {
		db.MustExec(fmt.Sprintf(`insert into positions values ('P%04d', 100)`, i))
	}

	// Scan-heavy query mix with tiny outputs: two aggregates and a point
	// lookup on the unindexed key, so every query pays a full snapshot
	// scan and the sweep measures the executor, not result encoding.
	mix := []string{
		`select sum(value) as total from positions`,
		`select count(sym) as n from positions`,
		`select sym, value from positions where sym = 'P0001'`,
	}

	// Dial all clients up front (staggered) so the measured window has a
	// steady population.
	conns := make([]*client.Client, clients)
	var dialWG sync.WaitGroup
	dialSem := make(chan struct{}, 64)
	var dialErr atomic.Value
	for i := range conns {
		dialWG.Add(1)
		go func(i int) {
			defer dialWG.Done()
			dialSem <- struct{}{}
			defer func() { <-dialSem }()
			c, err := client.Dial(db.ServerAddr(), client.Options{DialTimeout: 10 * time.Second})
			if err != nil {
				dialErr.Store(err)
				return
			}
			conns[i] = c
		}(i)
	}
	dialWG.Wait()
	if err, _ := dialErr.Load().(error); err != nil {
		return serveRun{}, err
	}
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close() //nolint:errcheck
			}
		}
	}()

	// Low-rate writer: LSN churn so snapshot scans walk real version chains.
	var stop atomic.Bool
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 0; !stop.Load(); i++ {
			sym := fmt.Sprintf("P%04d", i%rows)
			db.MustExec(`update positions set value = value + 1 where sym = '` + sym + `'`)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	lats := make([][]int64, clients)
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
				// Latency from the SCHEDULED send time: a request delayed
				// behind its predecessor on this connection is charged that
				// queueing, as an open-loop harness must.
				if _, err := c.Query(mix[len(lats[i])%len(mix)]); err != nil {
					runErr.Store(fmt.Errorf("client %d: %w", i, err))
					return
				}
				lats[i] = append(lats[i], time.Since(next).Microseconds())
				next = next.Add(serveArrival)
				atomic.AddInt64(&done, 1)
			}
		}(i, c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	stop.Store(true)
	writerWG.Wait()
	if err, _ := runErr.Load().(error); err != nil {
		return serveRun{}, err
	}

	var all []int64
	for _, l := range lats {
		all = append(all, l...)
	}

	reg := db.Obs()
	return serveRun{
		Clients:   clients,
		Queries:   done,
		QPS:       float64(done) / elapsed.Seconds(),
		P50Micros: pct(all, 50),
		P95Micros: pct(all, 95),
		P99Micros: pct(all, 99),

		SnapshotScans: reg.Counter(obs.MMvccSnapshotScans).Load(),
		BusyRejected:  reg.Counter(obs.MServerBusy).Load(),
	}, nil
}

func runServeBench(metricsPath, scale string, progress func(string)) {
	rows, d := 2048, 1200*time.Millisecond
	sweep := []int{1, 4, 16, 64, 256, 1024}
	if scale == "small" {
		rows, d = 1024, 600*time.Millisecond
		sweep = []int{1, 16, 64, 256}
	}

	res := serveResult{
		Experiment: "serve",
		Scale:      scale,
		Rows:       rows,
		IntervalUs: serveArrival.Microseconds(),
		DurationMs: float64(d.Microseconds()) / 1000,
	}
	for _, n := range sweep {
		run, err := serveOnce(n, rows, d)
		if err != nil {
			fail(err)
		}
		res.Runs = append(res.Runs, run)
		if progress != nil {
			progress(fmt.Sprintf("serve clients=%-4d qps=%.0f p95=%dµs", run.Clients, run.QPS, run.P95Micros))
		}
	}

	fmt.Printf("%8s %12s %12s %12s %10s\n", "clients", "qps", "p95_µs", "p99_µs", "busy")
	for _, r := range res.Runs {
		fmt.Printf("%8d %12.0f %12d %12d %10d\n", r.Clients, r.QPS, r.P95Micros, r.P99Micros, r.BusyRejected)
	}

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
