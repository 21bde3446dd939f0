package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stripdb/strip/client"
)

// scanTexts are serve_scan's full-scan reads: aggregates over the base
// and derived tables and one group-by. Only these few texts repeat.
var scanTexts = []string{
	stocksScanSQL,
	"select count(option_symbol) as n from option_prices",
	groupBySQL,
}

// scanMix draws scan texts 5:2:1. The texts cost very different amounts
// (6,600, 50,000 and 80,000 rows), so the weights keep the median inside
// one text's latency rather than on the edge between two.
var scanMix = []int{0, 0, 0, 0, 0, 1, 1, 2}

const (
	// hotKeys is the size of serve_scan's point-read key set.
	hotKeys = 32
	// writeEvery makes 1 in 16 of the point connection's operations a
	// quote update.
	writeEvery = 16
	// pollFor bounds how long the writer polls for its quote's derived
	// price before the quote is left to a later read or to settle.
	pollFor = time.Second
	// cycle is the length of each connection's pre-generated sequence of
	// scan texts or hot keys, which repeats for as long as a window runs.
	cycle = 1 << 16
)

// The two connections' roles.
const (
	scanConn  = 0
	pointConn = 1
)

// serveScan drives serve_scan: two connections, closed-loop. The scan
// connection runs the scan mix back to back, as an analytics client
// would. The point connection runs hot-key point reads with every 16th
// operation a quote update in trace order, and after each acked quote it
// polls the watched option until the derived price reflects the quote.
// Polls measure freshness; they are counted apart from the mix's reads,
// so point latencies and read_qps cover only the hot keys and scans.
//
// The roles are split because, with both connections running the whole
// mix on two cores, 1-2% of point reads waited over 0.5 ms for a CPU,
// which put their p99 on the edge between fast and delayed reads; split,
// under 0.3% wait that long.
type serveScan struct {
	rig    *Rig
	m      *Matcher
	hot    []string
	quotes []Quote
	scans  []int32 // scanTexts indexes
	keys   []int32 // hot indexes
	pos    [2]int  // operations each connection has run
	watch  map[string]string
	ids    atomic.Int64
}

func newServeScan(in *Inputs, rig *Rig, ref *Reference, m *Matcher) (*serveScan, error) {
	quotes, err := in.quotes(ref)
	if err != nil {
		return nil, err
	}
	s := &serveScan{rig: rig, m: m, quotes: quotes, watch: make(map[string]string)}
	for st, o := range ref.Watch {
		s.watch[st] = pointSQL(o)
	}
	opts := make([]string, 0, len(ref.Options))
	for o := range ref.Options {
		opts = append(opts, o)
	}
	sort.Strings(opts)
	rng := rand.New(rand.NewSource(in.Seed + 3000))
	for i := 0; i < hotKeys; i++ {
		s.hot = append(s.hot, pointSQL(opts[rng.Intn(len(opts))]))
	}
	for i := 0; i < cycle; i++ {
		s.scans = append(s.scans, int32(scanMix[rng.Intn(len(scanMix))]))
		s.keys = append(s.keys, int32(rng.Intn(hotKeys)))
	}
	return s, nil
}

// window runs both connections closed-loop for d, then drains the engine
// and settles unresolved freshness.
func (s *serveScan) window(tr *Tracer, d time.Duration) (*Window, error) {
	w := newWindow()
	end := w.Start.Add(d)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.scanLoop(tr, end, w)
	}()
	err := s.pointLoop(tr, end, w)
	wg.Wait()
	s.rig.DB.WaitIdle()
	w.Elapsed = time.Since(w.Start)
	if err != nil {
		return nil, err
	}
	return w, settle(s.m, s.watch, w, served(s.rig.Conns[pointConn]))
}

func (s *serveScan) scanLoop(tr *Tracer, end time.Time, w *Window) {
	conn := s.rig.Conns[scanConn]
	for time.Now().Before(end) {
		i := s.scans[s.pos[scanConn]%cycle]
		s.pos[scanConn]++
		s.read(tr, conn, s.ids.Add(1), scanTexts[i], true, "", w)
	}
}

func (s *serveScan) pointLoop(tr *Tracer, end time.Time, w *Window) error {
	conn := s.rig.Conns[pointConn]
	for time.Now().Before(end) {
		n := s.pos[pointConn]
		s.pos[pointConn]++
		id := s.ids.Add(1)
		if n%writeEvery != writeEvery-1 {
			s.read(tr, conn, id, s.hot[s.keys[n%cycle]], false, "", w)
			continue
		}
		if n/writeEvery >= len(s.quotes) {
			return fmt.Errorf("serve_scan: the trace ran out of quotes")
		}
		q := s.quotes[n/writeEvery]
		idx := s.m.Sent(q.Symbol, q.Expected)
		root := tr.Begin("bench.write", id, -1)
		sp := tr.Begin("server.exec", id, root)
		t0 := time.Now()
		_, err := conn.Exec(q.SQL)
		done := time.Now()
		tr.End(sp)
		tr.End(root)
		w.write(q, ms(done.Sub(t0)), err)
		if err != nil {
			s.m.Failed(q.Symbol, idx)
			continue
		}
		s.m.Acked(q.Symbol, idx, done)
		_, ready := s.rig.DB.PendingTasks()
		w.ready(ready)
		for idx >= 0 && s.m.Pending(q.Symbol) && time.Since(done) < pollFor {
			s.read(tr, conn, id, s.watch[q.Symbol], false, q.Symbol, w)
		}
	}
	return nil
}

// read issues one served read; with stock set it is a freshness poll of
// that stock's watched option.
func (s *serveScan) read(tr *Tracer, c *client.Client, id int64, sql string, scan bool, stock string, w *Window) {
	name := "bench.read"
	if stock != "" {
		name = "bench.poll"
	}
	root := tr.Begin(name, id, -1)
	sp := tr.Begin("server.query", id, root)
	t0 := time.Now()
	res, err := c.Query(sql)
	done := time.Now()
	tr.End(sp)
	tr.End(root)
	if err == nil && len(res.Rows) == 0 {
		err = fmt.Errorf("%q: no rows", sql)
	}
	if stock != "" {
		w.poll(err)
	} else {
		w.read(scan, ms(done.Sub(t0)), err)
	}
	if err == nil && stock != "" && !s.m.Observe(stock, res.Rows[0][0].Float(), t0, done) {
		w.fail(1, fmt.Errorf("%s: option price %v matches no quote", stock, res.Rows[0][0]))
	}
}
