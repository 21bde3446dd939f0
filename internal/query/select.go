package query

import (
	"fmt"
	"sync/atomic"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/cost"
	"github.com/stripdb/strip/internal/obs"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/txn"
	"github.com/stripdb/strip/internal/types"
)

// Resolver maps a table name to a standard or temporary table. Rule action
// tasks resolve bound tables first and fall back to the database catalog
// (paper §6.3); plain transactions use TxnResolver.
type Resolver interface {
	Resolve(tx *txn.Txn, name string) (*storage.Table, *storage.TempTable, error)
}

// TxnResolver resolves names against the database only, acquiring
// intention-shared table locks through the transaction; the executor then
// locks the individual rows it reads (or escalates a scan to table S).
type TxnResolver struct{}

// Resolve implements Resolver.
func (TxnResolver) Resolve(tx *txn.Txn, name string) (*storage.Table, *storage.TempTable, error) {
	tbl, err := tx.ReadTable(name)
	if err != nil {
		return nil, nil, err
	}
	return tbl, nil, nil
}

// source is one FROM entry after resolution: exactly one of tbl/tmp is set.
type source struct {
	name   string
	schema *catalog.Schema
	tbl    *storage.Table
	tmp    *storage.TempTable
}

// cursor is a source's current position during join iteration.
type cursor struct {
	src *source
	rec *storage.Record // standard-table position
	row int             // temp-table position
}

func (c cursor) value(col int) types.Value {
	if c.src.tbl != nil {
		return c.rec.Value(col)
	}
	return c.src.tmp.Value(c.row, col)
}

// AggKind selects an aggregate function for a select item.
type AggKind uint8

// Aggregates.
const (
	AggNone AggKind = iota
	AggSum
	AggCount
	AggAvg
	AggMin
	AggMax
)

// String names the aggregate.
func (a AggKind) String() string {
	switch a {
	case AggNone:
		return ""
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return "?"
	}
}

// SelectItem is one output column of a Select.
type SelectItem struct {
	Expr Expr
	Agg  AggKind
	As   string // output column name; defaults to the column name for refs
}

// Item builds a plain select item.
func Item(e Expr, as string) SelectItem { return SelectItem{Expr: e, As: as} }

// AggItem builds an aggregate select item.
func AggItem(agg AggKind, e Expr, as string) SelectItem {
	return SelectItem{Expr: e, Agg: agg, As: as}
}

// Select is a select-project-join query with optional grouping.
//
// Execution is staged: the query lowers onto its resolved sources once
// (clone, resolve, plan — see compile.go), the resulting immutable plan
// is cached on the Select and shared across runs whose sources still
// match its signature, and each run streams the plan's operator tree
// (see iter.go) under the calling transaction's lock or snapshot
// discipline.
type Select struct {
	Items   []SelectItem
	From    []string
	Where   []Pred
	GroupBy []*ColRef
	// Star selects every column of every FROM table in order (`select *`);
	// Items must be empty.
	Star bool
	// OrderBy sorts the result by output columns (by name); Desc flips the
	// whole ordering.
	OrderBy []string
	Desc    bool
	// Limit caps the result to the first n rows (applied after OrderBy);
	// zero means no cap.
	Limit int
	// Bind names the result temp table (the `bind as` clause); defaults to
	// "result".
	Bind string

	// cache holds the most recent compiled plan. Plans are immutable and
	// safe to share: concurrent runs load the same pointer and keep all
	// mutable state in their own exec.
	cache atomic.Pointer[compiled]
}

// Run executes the query inside tx, resolving table names through res, and
// returns the result as a temporary table. Results use the §6.1 pointer
// layout for every column that traces back to a standard-table record;
// computed and aggregate columns are materialized.
func (q *Select) Run(tx *txn.Txn, res Resolver) (*storage.TempTable, error) {
	mgr := tx.Manager()
	start := mgr.Clock.Now()
	out, _, err := q.runQuery(tx, res, false)
	mgr.Obs.Counter(obs.MQuerySelects).Inc()
	mgr.Obs.Histogram(obs.MQuerySelectMicros).Record(mgr.Clock.Now() - start)
	return out, err
}

// RunExplain executes like Run and additionally returns the physical
// plan tree annotated with the planner's estimated rows and the actual
// rows each operator produced.
func (q *Select) RunExplain(tx *txn.Txn, res Resolver) (*storage.TempTable, *PlanNode, error) {
	mgr := tx.Manager()
	start := mgr.Clock.Now()
	out, node, err := q.runQuery(tx, res, true)
	mgr.Obs.Counter(obs.MQuerySelects).Inc()
	mgr.Obs.Histogram(obs.MQuerySelectMicros).Record(mgr.Clock.Now() - start)
	return out, node, err
}

func (q *Select) run(tx *txn.Txn, res Resolver) (*storage.TempTable, error) {
	out, _, err := q.runQuery(tx, res, false)
	return out, err
}

func (q *Select) runQuery(tx *txn.Txn, res Resolver, wantNode bool) (*storage.TempTable, *PlanNode, error) {
	model := tx.Model()
	tx.Charge(model.StmtSetup)
	var srcs []*source
	for _, name := range q.From {
		tbl, tmp, err := res.Resolve(tx, name)
		if err != nil {
			return nil, nil, err
		}
		s := &source{name: name, tbl: tbl, tmp: tmp}
		if tbl != nil {
			s.schema = tbl.Schema()
		} else {
			s.schema = tmp.Schema()
		}
		srcs = append(srcs, s)
		tx.Charge(model.OpenCursor)
	}
	if len(srcs) == 0 {
		return nil, nil, fmt.Errorf("query: select with empty FROM")
	}
	c, err := q.ensureCompiled(tx, srcs)
	if err != nil {
		return nil, nil, err
	}
	return c.execute(tx, srcs, wantNode)
}

// execute runs a compiled plan against this run's resolved sources.
func (c *compiled) execute(tx *txn.Txn, srcs []*source, wantNode bool) (*storage.TempTable, *PlanNode, error) {
	ex := &exec{
		c:     c,
		q:     c.q,
		tx:    tx,
		model: tx.Model(),
		prof:  tx.Profile(),
		srcs:  srcs,
		cur:   make([]cursor, len(srcs)),
	}
	if c.agg {
		ex.aggregate = true
		ex.groups = make(map[types.Key]*groupState)
	}
	if err := ex.prepareOutput(); err != nil {
		return nil, nil, err
	}

	// Evaluate constant predicates once.
	empty := false
	for _, p := range c.consts {
		ok, err := p.eval(nil)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			empty = true // provably empty
			break
		}
	}

	root := ex.buildTree()
	if !empty {
		if err := ex.drive(root); err != nil {
			return nil, nil, err
		}
	}
	out, err := ex.finish()
	if err != nil {
		return nil, nil, err
	}
	// Selectivity feedback: only full runs report — a LIMIT may stop the
	// drive early and would undercount against the estimate.
	if c.q.Limit == 0 {
		c.noteActual(ex.matched)
	}
	if len(c.q.OrderBy) > 0 {
		if err := sortResult(out, c.q.OrderBy, c.q.Desc); err != nil {
			out.Retire()
			return nil, nil, err
		}
	}
	sorted := out.Len()
	if c.q.Limit > 0 {
		out.Truncate(c.q.Limit)
	}
	var node *PlanNode
	if wantNode {
		node = ex.explainNode(root, sorted, out.Len())
	}
	return out, node, nil
}

// clone deep-copies the query for a private run.
func (q *Select) clone() *Select {
	cp := &Select{
		Items:   make([]SelectItem, len(q.Items)),
		From:    append([]string(nil), q.From...),
		Where:   make([]Pred, len(q.Where)),
		GroupBy: make([]*ColRef, len(q.GroupBy)),
		Star:    q.Star,
		OrderBy: append([]string(nil), q.OrderBy...),
		Desc:    q.Desc,
		Limit:   q.Limit,
		Bind:    q.Bind,
	}
	for i, it := range q.Items {
		cp.Items[i] = SelectItem{Agg: it.Agg, As: it.As}
		if it.Expr != nil {
			cp.Items[i].Expr = it.Expr.clone()
		}
	}
	for i, p := range q.Where {
		cp.Where[i] = p.clone()
	}
	for i, g := range q.GroupBy {
		cp.GroupBy[i] = g.cloneRef()
	}
	return cp
}

// exec carries the per-run state of a compiled plan: the transaction,
// this run's resolved sources, the joint cursor row the operators write
// into, and the output under construction.
type exec struct {
	c     *compiled
	q     *Select // == c.q: the resolved, immutable query
	tx    *txn.Txn
	model cost.Model
	srcs  []*source
	cur   []cursor
	// prof receives row accounting (rows visited/matched) when the
	// transaction carries a cost profile; nil otherwise.
	prof *txn.TxnProfile
	// matched counts joint rows emitted (pre-aggregation), always on:
	// it feeds selectivity feedback against the plan's estimate.
	matched int64

	// Output construction.
	out      *storage.TempTable
	ptrSlots []ptrSlot // pointer slots of the output layout
	matCols  []int     // item indexes of materialized columns

	// Grouping state.
	groups    map[types.Key]*groupState
	groupSeq  []types.Key
	aggregate bool
}

// ptrSlot identifies one pointer of the output layout: records flow either
// directly from a standard source (tmpPtr == -1) or through a temp source's
// own pointer tmpPtr.
type ptrSlot struct {
	src    int
	tmpPtr int
}

// prepareOutput builds the result temp table: schema, pointer slots, and
// static map.
func (ex *exec) prepareOutput() error {
	name := ex.q.Bind
	if name == "" {
		name = "result"
	}
	cols := make([]catalog.Column, len(ex.q.Items))
	for i, it := range ex.q.Items {
		colName := it.As
		if colName == "" {
			if cr, ok := it.Expr.(*ColRef); ok && it.Agg == AggNone {
				colName = cr.Col
			} else {
				return fmt.Errorf("query: select item %d (%s) needs an alias", i, it.Expr)
			}
		}
		cols[i] = catalog.Column{Name: colName, Kind: ex.itemKind(it)}
	}
	schema, err := catalog.NewSchema(name, cols)
	if err != nil {
		return err
	}

	if ex.aggregate {
		ex.out = storage.NewValueTempTable(schema)
		return nil
	}

	// Pointer layout: share one slot per distinct record origin (paper §6.1:
	// one pointer per standard tuple contributing at least one attribute).
	slotOf := map[ptrSlot]int{}
	srcMap := make([]storage.ColSource, len(ex.q.Items))
	nMat := 0
	for i, it := range ex.q.Items {
		cr, isRef := it.Expr.(*ColRef)
		if !isRef {
			srcMap[i] = storage.Materialized(nMat)
			ex.matCols = append(ex.matCols, i)
			nMat++
			continue
		}
		s := ex.srcs[cr.src]
		var slot ptrSlot
		off := cr.col
		if s.tbl != nil {
			slot = ptrSlot{src: cr.src, tmpPtr: -1}
		} else {
			cs := s.tmp.Source(cr.col)
			if cs.Ptr < 0 {
				// Materialized in the source temp table; copy the value.
				srcMap[i] = storage.Materialized(nMat)
				ex.matCols = append(ex.matCols, i)
				nMat++
				continue
			}
			slot = ptrSlot{src: cr.src, tmpPtr: cs.Ptr}
			off = cs.Off
		}
		idx, ok := slotOf[slot]
		if !ok {
			idx = len(ex.ptrSlots)
			slotOf[slot] = idx
			ex.ptrSlots = append(ex.ptrSlots, slot)
		}
		srcMap[i] = storage.FromRecord(idx, off)
	}
	ex.out, err = storage.NewTempTable(schema, srcMap, len(ex.ptrSlots))
	return err
}

func (ex *exec) itemKind(it SelectItem) types.Kind {
	switch it.Agg {
	case AggCount:
		return types.KindInt
	case AggAvg:
		return types.KindFloat
	}
	return exprKind(it.Expr, ex.srcs)
}

func exprKind(e Expr, srcs []*source) types.Kind {
	switch x := e.(type) {
	case *ColRef:
		return srcs[x.src].schema.Col(x.col).Kind
	case *ConstExpr:
		return x.Val.Kind()
	case *BinExpr:
		if exprKind(x.Left, srcs) == types.KindInt && exprKind(x.Right, srcs) == types.KindInt {
			return types.KindInt
		}
		return types.KindFloat
	case *FuncExpr:
		return types.KindFloat
	default:
		return types.KindNull
	}
}

// groupState accumulates aggregates for one group.
type groupState struct {
	reps   []types.Value // group-by column values in Items order (nil holes)
	counts []int64
	sums   []float64
	mins   []types.Value
	maxs   []types.Value
}

// emit folds the current joint row (ex.cur) into the output: append for
// plain projections, accumulate for aggregates.
func (ex *exec) emit() error {
	cur := ex.cur
	ex.matched++
	if ex.prof != nil {
		ex.prof.RowsMatched++
	}
	if !ex.aggregate {
		ex.tx.Charge(ex.model.OutputRow)
		ptrs := make([]*storage.Record, len(ex.ptrSlots))
		for i, slot := range ex.ptrSlots {
			c := cur[slot.src]
			if slot.tmpPtr < 0 {
				ptrs[i] = c.rec
			} else {
				ptrs[i] = c.src.tmp.RowPtr(c.row, slot.tmpPtr)
			}
		}
		var vals []types.Value
		for _, itemIdx := range ex.matCols {
			v, err := ex.q.Items[itemIdx].Expr.eval(cur)
			if err != nil {
				return err
			}
			vals = append(vals, v)
		}
		return ex.out.AppendRow(ptrs, vals)
	}

	ex.tx.Charge(ex.model.GroupRow)
	keyVals := make([]types.Value, len(ex.q.GroupBy))
	for i, g := range ex.q.GroupBy {
		v, err := g.eval(cur)
		if err != nil {
			return err
		}
		keyVals[i] = v
	}
	key := types.MakeKey(keyVals...)
	gs, ok := ex.groups[key]
	if !ok {
		gs = &groupState{
			reps:   make([]types.Value, len(ex.q.Items)),
			counts: make([]int64, len(ex.q.Items)),
			sums:   make([]float64, len(ex.q.Items)),
			mins:   make([]types.Value, len(ex.q.Items)),
			maxs:   make([]types.Value, len(ex.q.Items)),
		}
		ex.groups[key] = gs
		ex.groupSeq = append(ex.groupSeq, key)
	}
	for i, it := range ex.q.Items {
		switch it.Agg {
		case AggNone:
			if gs.counts[i] == 0 {
				v, err := it.Expr.eval(cur)
				if err != nil {
					return err
				}
				gs.reps[i] = v
			}
			gs.counts[i]++
		case AggCount:
			gs.counts[i]++
		default:
			v, err := it.Expr.eval(cur)
			if err != nil {
				return err
			}
			gs.counts[i]++
			gs.sums[i] += v.Float()
			if gs.mins[i].IsNull() || v.Compare(gs.mins[i]) < 0 {
				gs.mins[i] = v
			}
			if gs.maxs[i].IsNull() || v.Compare(gs.maxs[i]) > 0 {
				gs.maxs[i] = v
			}
		}
	}
	return nil
}

// finish materializes grouped output (or returns the row output directly).
func (ex *exec) finish() (*storage.TempTable, error) {
	if !ex.aggregate {
		return ex.out, nil
	}
	for _, key := range ex.groupSeq {
		gs := ex.groups[key]
		row := make([]types.Value, len(ex.q.Items))
		for i, it := range ex.q.Items {
			switch it.Agg {
			case AggNone:
				row[i] = gs.reps[i]
			case AggCount:
				row[i] = types.Int(gs.counts[i])
			case AggSum:
				if ex.itemKind(it) == types.KindInt {
					row[i] = types.Int(int64(gs.sums[i]))
				} else {
					row[i] = types.Float(gs.sums[i])
				}
			case AggAvg:
				row[i] = types.Float(gs.sums[i] / float64(gs.counts[i]))
			case AggMin:
				row[i] = gs.mins[i]
			case AggMax:
				row[i] = gs.maxs[i]
			}
		}
		if err := ex.out.AppendValues(row...); err != nil {
			return nil, err
		}
	}
	return ex.out, nil
}

// sortResult orders a result temp table by the named output columns.
func sortResult(tt *storage.TempTable, orderBy []string, desc bool) error {
	cols := make([]int, len(orderBy))
	for i, name := range orderBy {
		ci := tt.Schema().ColIndex(name)
		if ci < 0 {
			return fmt.Errorf("query: ORDER BY column %q not in select list", name)
		}
		cols[i] = ci
	}
	tt.SortRows(func(a, b int) bool {
		for _, c := range cols {
			cmp := tt.Value(a, c).Compare(tt.Value(b, c))
			if cmp != 0 {
				if desc {
					return cmp > 0
				}
				return cmp < 0
			}
		}
		return false
	})
	return nil
}
