package main

import (
	"fmt"
	"time"

	strip "github.com/stripdb/strip"
	"github.com/stripdb/strip/internal/clock"
	"github.com/stripdb/strip/internal/feed"
	"github.com/stripdb/strip/internal/types"
)

// replayDelay is pta_replay's rule delay window: the paper's 1 s.
const replayDelay = 1.0

// replay drives pta_replay: the trace's quotes as embedded update
// transactions on the virtual clock, rule tasks run as their release
// times arrive, and an embedded reader that checks each recomputed
// option once its task is due plus a group-by over comps_list every
// replayScanEvery quotes. The reader shares the replay thread, so its time
// is paused out of replay_quotes_per_s.
type replay struct {
	rig     *Rig
	m       *Matcher
	quotes  []Quote
	vtimes  []int64 // virtual time of each quote
	symbols map[string]types.Value
	points  map[string]*strip.Select // stock → read of its watched option
	watch   map[string]string        // stock → its text, for settling
	scan    *strip.Select
	pos     int
	offset  int64 // shifts quote times past a drain's clock advance
	due     []dueRead
}

// dueRead is a watched option whose recompute is due at vt.
type dueRead struct {
	stock string
	vt    int64
	trace int64
}

// replayScanEvery is how many quotes pta_replay applies per group-by over
// comps_list.
const replayScanEvery = 64

// stocksScanSQL totals every stock price.
const stocksScanSQL = "select sum(price) as total from stocks"

// groupBySQL weighs every composite: a group-by over all 80,000
// comps_list rows. It is pta_replay's scan because one run of it (~40 ms)
// spans many scheduler time slices and GC phases, so its tail tracks the
// engine rather than how a few short scans happened to be preempted.
const groupBySQL = "select comp, sum(weight) as total from comps_list group by comp"

func newReplay(in *Inputs, rig *Rig, ref *Reference, m *Matcher) (*replay, error) {
	quotes, err := in.quotes(ref)
	if err != nil {
		return nil, err
	}
	r := &replay{rig: rig, m: m, quotes: quotes,
		symbols: make(map[string]types.Value), points: make(map[string]*strip.Select),
		watch: make(map[string]string)}
	for _, q := range in.Trace.Quotes {
		r.vtimes = append(r.vtimes, q.Time)
	}
	for i := range in.Trace.Initial {
		sym := feed.Symbol(i)
		r.symbols[sym] = types.Str(sym)
		if o, ok := ref.Watch[sym]; ok {
			r.watch[sym] = pointSQL(o)
			sel, err := strip.ParseSelect(r.watch[sym])
			if err != nil {
				return nil, err
			}
			r.points[sym] = sel
		}
	}
	r.scan, err = strip.ParseSelect(groupBySQL)
	return r, err
}

// compScanSQL is the derived-data scan every workload issues: the total
// of the 400 composite prices.
const compScanSQL = "select sum(price) as total from comp_prices"

// window replays quotes for about d of wall time, then drains every
// delayed task; Elapsed includes the drain, and Paused the reader's time.
func (r *replay) window(tr *Tracer, d time.Duration) (*Window, error) {
	w := newWindow()
	db := r.rig.DB
	model := db.Model()
	start := w.Start
	for ; r.pos < len(r.quotes); r.pos++ {
		if r.pos%replayScanEvery == 0 && time.Since(start) >= d {
			break
		}
		q := r.quotes[r.pos]
		id := int64(r.pos + 1)
		root := tr.Begin("bench.quote", id, -1)
		vt := r.vtimes[r.pos] + r.offset
		if err := r.runDue(tr, id, root, vt, w); err != nil {
			return nil, err
		}
		db.AdvanceTo(vt)
		db.Charge(model.BeginTask + model.OpenCursor + model.FetchCursor + model.CloseCursor + model.EndTask)
		idx := r.m.Sent(q.Symbol, q.Expected)
		t0 := time.Now()
		err := r.apply(tr, id, root, q)
		done := time.Now()
		w.write(q, ms(done.Sub(t0)), err)
		if err != nil {
			r.m.Failed(q.Symbol, idx)
		} else {
			r.m.Acked(q.Symbol, idx, done)
			if idx >= 0 {
				r.due = append(r.due, dueRead{q.Symbol, vt + clock.FromSeconds(replayDelay), id})
			}
		}
		if r.pos%replayScanEvery == 0 {
			r.read(tr, id, root, "", w)
		}
		tr.End(root)
	}
	for {
		ts, ok := db.NextTaskTime()
		if !ok {
			break
		}
		if err := r.runDue(tr, 0, -1, ts, w); err != nil {
			return nil, err
		}
	}
	w.Elapsed = time.Since(start)
	if err := settle(r.m, r.watch, w, embedded(db)); err != nil {
		return nil, err
	}
	if r.pos < len(r.quotes) && db.Now() > r.vtimes[r.pos]+r.offset {
		r.offset = db.Now() - r.vtimes[r.pos]
	}
	return w, nil
}

// runDue releases and runs every task due at or before vt, then reads the
// watched options whose recompute came due.
func (r *replay) runDue(tr *Tracer, id int64, parent int, vt int64, w *Window) error {
	db := r.rig.DB
	for {
		ts, ok := db.NextTaskTime()
		if !ok || ts > vt {
			break
		}
		db.AdvanceTo(ts)
		t0 := time.Now()
		n := db.RunReady()
		if n == 0 {
			break
		}
		tr.Record("core.run_ready", id, parent, t0, time.Now())
		w.ready(n)
		for len(r.due) > 0 && r.due[0].vt <= db.Now() {
			dr := r.due[0]
			r.due = r.due[1:]
			if r.m.Pending(dr.stock) {
				r.read(tr, dr.trace, parent, dr.stock, w)
			}
		}
	}
	return nil
}

// apply runs one quote's base update transaction, as ptabench's replay
// does: an indexed lookup of the stock, then update and commit.
func (r *replay) apply(tr *Tracer, id int64, parent int, q Quote) error {
	db := r.rig.DB
	sym := r.symbols[q.Symbol]
	tx := db.Begin()
	tbl, err := tx.WriteTable("stocks")
	if err != nil {
		tx.Abort() //nolint:errcheck // the lookup error is the one to report
		return err
	}
	recs, ok := tbl.IndexLookup("symbol", sym)
	if !ok || len(recs) != 1 {
		tx.Abort() //nolint:errcheck // the lookup error is the one to report
		return fmt.Errorf("stock %s: %d records", q.Symbol, len(recs))
	}
	t0 := time.Now()
	_, err = tx.Update("stocks", recs[0], []types.Value{sym, types.Float(q.Price)})
	tr.Record("txn.update", id, parent, t0, time.Now())
	if err != nil {
		tx.Abort() //nolint:errcheck // the update error is the one to report
		return err
	}
	if tr == nil {
		return tx.Commit()
	}
	// Commits that ran a version-GC pass are reported apart.
	gcRuns := db.Obs().Counter("mvcc.gc_runs")
	gc0 := gcRuns.Load()
	t0 = time.Now()
	err = tx.Commit()
	t1 := time.Now()
	name := "txn.commit"
	if gcRuns.Load() != gc0 {
		name = "txn.commit_gc"
	}
	tr.Record(name, id, parent, t0, t1)
	return err
}

// read issues one embedded read: the watched option of stock, or the
// group-by when stock is empty. Its whole time is paused out of the write
// headline.
func (r *replay) read(tr *Tracer, id int64, parent int, stock string, w *Window) {
	sel, name := r.scan, "query.scan"
	if stock != "" {
		sel, name = r.points[stock], "query.point"
	}
	t0 := time.Now()
	defer func() { w.pause(time.Since(t0)) }()
	rows, _, err := r.rig.DB.Query(sel)
	done := time.Now()
	tr.Record(name, id, parent, t0, done)
	if err == nil && len(rows) == 0 {
		err = fmt.Errorf("%s: no rows", name)
	}
	w.read(stock == "", ms(done.Sub(t0)), err)
	if err == nil && stock != "" && !r.m.Observe(stock, rows[0][0].Float(), t0, done) {
		w.fail(1, fmt.Errorf("%s: option price %v matches no quote", stock, rows[0][0]))
	}
}
