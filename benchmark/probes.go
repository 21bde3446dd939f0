package main

import (
	"fmt"
	"time"

	strip "github.com/stripdb/strip"
	"github.com/stripdb/strip/internal/sqlparse"
)

// probeTexts are the statement texts the per-layer probes time: one of the
// workload's point reads, quote updates and scans, and the group-by.
type probeTexts struct {
	point, update, scan, groupBy string
	scanRows, groupRows          float64
}

// timeCalls runs f n times, recording each call as a span, and returns the
// median in µs. The first error stops it.
func timeCalls(tr *Tracer, name string, n int, f func() error) (float64, error) {
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		tr.Record(name, 0, -1, t0, t1)
		samples = append(samples, us(t1.Sub(t0)))
	}
	return Median(samples), nil
}

// probe times each layer's public entry points once the window is over,
// on the workload's own statement texts, and fills the timed per-layer
// metrics they give.
func probe(m Metrics, tr *Tracer, rig *Rig, pt probeTexts) error {
	db := rig.DB
	parse := func(sql string) func() error {
		return func() error { _, err := sqlparse.Parse(sql); return err }
	}
	var err error
	var parsePoint, parseUpdate, parseScan float64
	if parsePoint, err = timeCalls(tr, "sqlparse.parse", 2000, parse(pt.point)); err != nil {
		return err
	}
	if parseUpdate, err = timeCalls(tr, "sqlparse.parse", 2000, parse(pt.update)); err != nil {
		return err
	}
	if parseScan, err = timeCalls(tr, "sqlparse.parse", 2000, parse(pt.scan)); err != nil {
		return err
	}
	m.set("sqlparse.parse_point_us", "us", parsePoint)
	m.set("sqlparse.parse_update_us", "us", parseUpdate)
	m.set("sqlparse.parse_scan_us", "us", parseScan)

	explain, err := timeCalls(tr, "query.explain", 500, func() error { _, err := db.Explain(pt.point); return err })
	if err != nil {
		return err
	}
	m.set("query.plan_us", "us", max(0, explain-parsePoint))

	query := func(sql string) (func() error, error) {
		sel, err := strip.ParseSelect(sql)
		if err != nil {
			return nil, err
		}
		return func() error { _, _, err := db.Query(sel); return err }, nil
	}
	for _, q := range []struct {
		name, sql string
		n         int
		div       float64
		unit      string
	}{
		{"query.probe_us", pt.point, 2000, 1, "us"},
		{"query.scan_ns_per_row", pt.scan, 30, pt.scanRows / 1e3, "ns"},
		{"query.groupby_ns_per_row", pt.groupBy, 5, pt.groupRows / 1e3, "ns"},
	} {
		f, err := query(q.sql)
		if err != nil {
			return err
		}
		v, err := timeCalls(tr, "query.run", q.n, f)
		if err != nil {
			return err
		}
		m.set(q.name, q.unit, v/q.div)
	}

	if len(rig.Conns) == 0 {
		return nil
	}
	c := rig.Conns[0]
	ping, err := timeCalls(tr, "server.ping", 1000, c.Ping)
	if err != nil {
		return err
	}
	m.set("server.ping_rtt_us", "us", ping)
	served, err := timeCalls(tr, "server.query", 1000, func() error { _, err := c.Query(pt.point); return err })
	if err != nil {
		return err
	}
	embedded, err := timeCalls(tr, "query.exec", 1000, func() error { _, err := db.Exec(pt.point); return err })
	if err != nil {
		return err
	}
	m.set("server.overhead_us", "us", served-embedded)
	return nil
}
