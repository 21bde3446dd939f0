package query

import (
	"fmt"
	"strings"

	"github.com/stripdb/strip/internal/obs"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/txn"
	"github.com/stripdb/strip/internal/types"
)

// op is a Volcano-style streaming iterator. open positions the
// operator (re-opening an inner operator restarts it for the next
// outer row), next advances it one row — operators publish their
// current row by writing the owning source's cursor into exec.cur, so
// expressions evaluate against the joint row without copying — and
// node reports the operator's explain entry with estimated and actual
// rows.
type op interface {
	open() error
	next() (bool, error)
	close()
	node() *PlanNode
}

// buildTree assembles the physical operator tree for a compiled plan:
// a left-deep chain of nested-loop joins over scan/probe leaves (each
// wrapped in a filter when residual predicates apply), topped by a
// project or aggregate sink.
func (ex *exec) buildTree() op {
	var root op
	for pos := range ex.c.levels {
		lp := &ex.c.levels[pos]
		var acc op
		if lp.probe != nil {
			acc = &probeOp{ex: ex, lp: lp, pos: pos}
		} else {
			acc = &scanOp{ex: ex, lp: lp, pos: pos}
		}
		if len(lp.resid) > 0 {
			acc = &filterOp{ex: ex, lp: lp, child: acc}
		}
		if root == nil {
			root = acc
		} else {
			root = &joinOp{left: root, right: acc, est: lp.estOut}
		}
	}
	if ex.c.agg {
		return &aggOp{ex: ex, child: root}
	}
	return &projectOp{ex: ex, child: root}
}

// drive pulls the root until exhausted. With a LIMIT and no ordering
// or grouping, it stops as soon as the output is full.
func (ex *exec) drive(root op) error {
	if err := root.open(); err != nil {
		return err
	}
	defer root.close()
	limit := ex.c.q.Limit
	early := limit > 0 && !ex.c.agg && len(ex.c.q.OrderBy) == 0
	for {
		ok, err := root.next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if early && ex.out.Len() >= limit {
			return nil
		}
	}
}

// scanOp iterates one source: a temp table by row index, a standard
// table by materializing the visible record set on first open — under
// the table S lock for locked reads, or lock-free at the transaction's
// snapshot. The visible set is collected under the table latch and
// visited only after it is released: with no table S locks serializing
// writers on the snapshot path, a latch held across the consumer (which
// may latch another table, or this one again) can deadlock against a
// queued writer (RWMutex is writer-preferring). The materialized set is
// reused across re-opens within the run — legal because either the S
// lock or the fixed snapshot pins the visible set — so an inner scan
// pays the real scan once per query instead of once per outer row; the
// virtual ScanRow charge is still paid per yielded row for cost parity
// with the paper's model.
type scanOp struct {
	ex   *exec
	lp   *levelPlan
	pos  int
	mode string
	recs []*storage.Record
	mat  bool
	i    int
	rows int64
}

func (o *scanOp) open() error {
	o.i = 0
	s := o.ex.srcs[o.lp.src]
	if s.tbl == nil {
		o.mode = "temp"
		return nil
	}
	if o.mat {
		return nil
	}
	if snap, me, ok := o.ex.tx.SnapshotRead(); ok {
		o.mode = "snapshot"
		o.ex.tx.Manager().Obs.Counter(obs.MMvccSnapshotScans).Inc()
		s.tbl.ScanSnapshot(snap, me, func(r *storage.Record) bool {
			o.recs = append(o.recs, r)
			return true
		})
	} else {
		// A full scan locks the whole table shared rather than every
		// row (read-side escalation); this also shuts out record
		// writers whose IX would otherwise let rows change mid-scan.
		o.mode = "locked"
		if _, err := o.ex.tx.ScanTable(s.name); err != nil {
			return err
		}
		s.tbl.Scan(func(r *storage.Record) bool {
			o.recs = append(o.recs, r)
			return true
		})
	}
	o.mat = true
	return nil
}

func (o *scanOp) next() (bool, error) {
	ex := o.ex
	s := ex.srcs[o.lp.src]
	if s.tbl == nil {
		if o.i >= s.tmp.Len() {
			return false, nil
		}
		ex.tx.Charge(ex.model.ScanRow)
		ex.cur[o.lp.src] = cursor{src: s, row: o.i}
	} else {
		if o.i >= len(o.recs) {
			return false, nil
		}
		ex.tx.Charge(ex.model.ScanRow)
		ex.cur[o.lp.src] = cursor{src: s, rec: o.recs[o.i]}
	}
	o.i++
	if ex.prof != nil {
		ex.prof.RowsScanned++
	}
	if o.pos > 0 {
		ex.tx.Charge(ex.model.JoinRow)
	}
	o.rows++
	return true, nil
}

func (o *scanOp) close() {}

func (o *scanOp) node() *PlanNode {
	s := o.ex.srcs[o.lp.src]
	mode := o.mode
	if mode == "" {
		mode = "unopened"
	}
	return &PlanNode{
		Op:      "scan",
		Detail:  fmt.Sprintf("%s %s", s.name, mode),
		EstRows: o.lp.estAccess,
		ActRows: o.rows,
	}
}

// probeOp is an index nested-loop step: each open evaluates the key
// expression against the outer cursors and looks up the source's index
// — lock-free against the snapshot, or S-locking exactly the probed
// rows.
type probeOp struct {
	ex   *exec
	lp   *levelPlan
	pos  int
	recs []*storage.Record
	i    int
	rows int64
}

func (o *probeOp) open() error {
	o.i = 0
	ex := o.ex
	v, err := o.lp.probe.expr.eval(ex.cur)
	if err != nil {
		return err
	}
	ex.tx.Charge(ex.model.IndexProbe)
	o.recs, err = lookupRecords(ex.tx, ex.srcs[o.lp.src], o.lp.probe.col, v)
	return err
}

func (o *probeOp) next() (bool, error) {
	ex := o.ex
	if o.i >= len(o.recs) {
		return false, nil
	}
	ex.cur[o.lp.src] = cursor{src: ex.srcs[o.lp.src], rec: o.recs[o.i]}
	o.i++
	if ex.prof != nil {
		ex.prof.RowsScanned++
	}
	if o.pos > 0 {
		ex.tx.Charge(ex.model.JoinRow)
	}
	o.rows++
	return true, nil
}

func (o *probeOp) close() {}

func (o *probeOp) node() *PlanNode {
	s := o.ex.srcs[o.lp.src]
	return &PlanNode{
		Op:      "probe",
		Detail:  fmt.Sprintf("%s.%s = %s", s.name, o.lp.probe.col, o.lp.probe.expr),
		EstRows: o.lp.estAccess,
		ActRows: o.rows,
	}
}

// filterOp applies a level's residual predicates.
type filterOp struct {
	ex    *exec
	lp    *levelPlan
	child op
	rows  int64
}

func (o *filterOp) open() error { return o.child.open() }

func (o *filterOp) next() (bool, error) {
	for {
		ok, err := o.child.next()
		if err != nil || !ok {
			return ok, err
		}
		pass := true
		for _, p := range o.lp.resid {
			hold, err := p.eval(o.ex.cur)
			if err != nil {
				return false, err
			}
			if !hold {
				pass = false
				break
			}
		}
		if pass {
			o.rows++
			return true, nil
		}
	}
}

func (o *filterOp) close() { o.child.close() }

func (o *filterOp) node() *PlanNode {
	parts := make([]string, len(o.lp.resid))
	for i, p := range o.lp.resid {
		parts[i] = p.String()
	}
	return &PlanNode{
		Op:       "filter",
		Detail:   strings.Join(parts, " and "),
		EstRows:  o.lp.estOut,
		ActRows:  o.rows,
		Children: []*PlanNode{o.child.node()},
	}
}

// joinOp is a nested-loop join: for each left row it re-opens the right
// side (re-evaluating probes against the new outer cursors) and streams
// the cross-matched rows.
type joinOp struct {
	left, right op
	liveRight   bool
	est         float64
	rows        int64
}

func (j *joinOp) open() error {
	j.liveRight = false
	return j.left.open()
}

func (j *joinOp) next() (bool, error) {
	for {
		if !j.liveRight {
			ok, err := j.left.next()
			if err != nil || !ok {
				return false, err
			}
			if err := j.right.open(); err != nil {
				return false, err
			}
			j.liveRight = true
		}
		ok, err := j.right.next()
		if err != nil {
			return false, err
		}
		if ok {
			j.rows++
			return true, nil
		}
		j.right.close()
		j.liveRight = false
	}
}

func (j *joinOp) close() {
	if j.liveRight {
		j.right.close()
		j.liveRight = false
	}
	j.left.close()
}

func (j *joinOp) node() *PlanNode {
	return &PlanNode{
		Op:       "join",
		Detail:   "nested loop",
		EstRows:  j.est,
		ActRows:  j.rows,
		Children: []*PlanNode{j.left.node(), j.right.node()},
	}
}

// projectOp emits each joint row into the output temp table.
type projectOp struct {
	ex    *exec
	child op
	rows  int64
}

func (o *projectOp) open() error { return o.child.open() }

func (o *projectOp) next() (bool, error) {
	ok, err := o.child.next()
	if err != nil || !ok {
		return ok, err
	}
	if err := o.ex.emit(); err != nil {
		return false, err
	}
	o.rows++
	return true, nil
}

func (o *projectOp) close() { o.child.close() }

func (o *projectOp) node() *PlanNode {
	return &PlanNode{
		Op:       "project",
		Detail:   itemList(o.ex.c.q),
		EstRows:  o.ex.c.estRows,
		ActRows:  o.rows,
		Children: []*PlanNode{o.child.node()},
	}
}

// aggOp drains its child, folding every joint row into the group table;
// the groups materialize in exec.finish.
type aggOp struct {
	ex    *exec
	child op
	done  bool
}

func (o *aggOp) open() error { return o.child.open() }

func (o *aggOp) next() (bool, error) {
	if o.done {
		return false, nil
	}
	for {
		ok, err := o.child.next()
		if err != nil {
			return false, err
		}
		if !ok {
			o.done = true
			return false, nil
		}
		if err := o.ex.emit(); err != nil {
			return false, err
		}
	}
}

func (o *aggOp) close() { o.child.close() }

func (o *aggOp) node() *PlanNode {
	detail := itemList(o.ex.c.q)
	if len(o.ex.c.q.GroupBy) > 0 {
		parts := make([]string, len(o.ex.c.q.GroupBy))
		for i, g := range o.ex.c.q.GroupBy {
			parts[i] = g.String()
		}
		detail += " group by " + strings.Join(parts, ", ")
	}
	return &PlanNode{
		Op:       "aggregate",
		Detail:   detail,
		EstRows:  o.ex.c.estRows,
		ActRows:  int64(len(o.ex.groupSeq)),
		Children: []*PlanNode{o.child.node()},
	}
}

func itemList(q *Select) string {
	parts := make([]string, len(q.Items))
	for i, it := range q.Items {
		s := it.Expr.String()
		if it.Agg != AggNone {
			s = fmt.Sprintf("%s(%s)", it.Agg, s)
		}
		parts[i] = s
	}
	return strings.Join(parts, ", ")
}

// lookupRecords resolves an index probe: lock-free against the
// transaction's snapshot when snapshot reads are enabled, otherwise
// through lockedLookup's record S locks.
func lookupRecords(tx *txn.Txn, s *source, col string, v types.Value) ([]*storage.Record, error) {
	snap, me, ok := tx.SnapshotRead()
	if !ok {
		return lockedLookup(tx, s, col, v)
	}
	tx.Manager().Obs.Counter(obs.MMvccSnapshotProbes).Inc()
	if recs, exact := s.tbl.LookupSnapshot(col, v, snap, me); exact {
		return recs, nil
	}
	// An update changed an indexed column's value on this table, so the
	// index (which covers head versions only) could miss older versions
	// that match. Fall back to a filtered snapshot scan.
	ci := s.tbl.Schema().ColIndex(col)
	var recs []*storage.Record
	s.tbl.ScanSnapshot(snap, me, func(r *storage.Record) bool {
		if r.Value(ci).Equal(v) {
			recs = append(recs, r)
		}
		return true
	})
	return recs, nil
}

// lockedLookup probes the index and S-locks exactly the rows it
// returns. Acquiring the record lock can block behind a writer that
// replaces or deletes the row before committing (copy-on-update
// replacements keep the lock ID); when the granted record turns out
// stale the probe re-runs — the lock already held covers the
// replacement, so a bounded number of retries settles unless the index
// entry churns pathologically, in which case the probe escalates to a
// whole-table S as the always-correct fallback.
func lockedLookup(tx *txn.Txn, s *source, col string, v types.Value) ([]*storage.Record, error) {
	const maxAttempts = 3
	for attempt := 0; attempt < maxAttempts; attempt++ {
		recs, _ := s.tbl.IndexLookup(col, v)
		out := recs[:0]
		stale := false
		for _, r := range recs {
			if err := tx.LockRecordShared(s.name, r.ID()); err != nil {
				return nil, err
			}
			if !r.Live() {
				stale = true
				break
			}
			out = append(out, r)
		}
		if !stale {
			return out, nil
		}
	}
	if _, err := tx.ScanTable(s.name); err != nil {
		return nil, err
	}
	recs, _ := s.tbl.IndexLookup(col, v)
	return recs, nil
}
