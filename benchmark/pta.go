package main

import (
	"runtime"
	"strconv"
	"time"

	strip "github.com/stripdb/strip"
	"github.com/stripdb/strip/client"
	"github.com/stripdb/strip/internal/clock"
	"github.com/stripdb/strip/internal/feed"
	"github.com/stripdb/strip/internal/ptabench"
)

// setupRepeats is how many times each run sets the engine up; setup_s is
// the median, and the last engine serves the measured window.
const setupRepeats = 9

// Inputs are everything a run generates from its seed before timing
// starts: the paper-scale population and its quote trace.
type Inputs struct {
	Seed  int64
	Cfg   ptabench.WorkloadConfig
	Trace *feed.Trace
}

// NewInputs generates the paper-scale trace for seed.
func NewInputs(seed int64) (*Inputs, error) {
	cfg := ptabench.PaperScale()
	cfg.Feed.Seed = seed
	tr, err := feed.Generate(cfg.Feed)
	if err != nil {
		return nil, err
	}
	return &Inputs{Seed: seed, Cfg: cfg, Trace: tr}, nil
}

// engineKind is how a workload opens the engine.
type engineKind struct {
	virtual bool    // virtual clock, driven by the replay loop
	serve   bool    // stripd listener plus two client connections
	delay   float64 // rule delay window, seconds
}

// Rig is one set-up engine: database, rules and client connections.
type Rig struct {
	DB      *strip.DB
	Conns   []*client.Client
	FnComps string
	FnOpts  string
}

// openRig opens an in-memory engine, populates it, installs both rules
// and dials the clients.
func openRig(in *Inputs, k engineKind) (*Rig, error) {
	cfg := strip.Config{Virtual: k.virtual}
	if !k.virtual {
		cfg.Workers = runtime.NumCPU()
	}
	if k.serve {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	db, err := strip.Open(cfg)
	if err != nil {
		return nil, err
	}
	db.EnableTrace(false)
	r := &Rig{DB: db}
	if err := r.populate(in, k); err != nil {
		r.Close() //nolint:errcheck // the setup error is the one to report
		return nil, err
	}
	return r, nil
}

func (r *Rig) populate(in *Inputs, k engineKind) error {
	if _, err := ptabench.Setup(r.DB, in.Trace, in.Cfg); err != nil {
		return err
	}
	var err error
	delay := clock.FromSeconds(k.delay)
	if r.FnComps, err = ptabench.Install(r.DB, ptabench.CompUniqueComp, delay); err != nil {
		return err
	}
	if r.FnOpts, err = ptabench.Install(r.DB, ptabench.OptUniqueSymbol, delay); err != nil {
		return err
	}
	if k.serve {
		for i := 0; i < 2; i++ {
			c, err := client.Dial(r.DB.ServerAddr(), client.Options{})
			if err != nil {
				return err
			}
			r.Conns = append(r.Conns, c)
		}
	}
	return nil
}

// Close hangs up the clients and closes the engine.
func (r *Rig) Close() error {
	for _, c := range r.Conns {
		c.Close() //nolint:errcheck // the engine close below reports real failures
	}
	r.Conns = nil
	return r.DB.Close()
}

// setUp opens the engine setupRepeats times, keeping the last, and
// returns each set-up time in seconds.
func setUp(in *Inputs, k engineKind) (*Rig, []float64, error) {
	var times []float64
	var rig *Rig
	for i := 0; i < setupRepeats; i++ {
		if rig != nil {
			if err := rig.Close(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		if rig, err = openRig(in, k); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return rig, times, nil
}

// updateSQL is the served text of one quote: every statement carries its
// literals, so nearly every text is distinct.
func updateSQL(symbol string, price float64) string {
	return "update stocks set price = " + strconv.FormatFloat(price, 'g', -1, 64) +
		" where symbol = '" + symbol + "'"
}

// pointSQL reads one derived option price by its indexed key.
func pointSQL(option string) string {
	return "select price from option_prices where option_symbol = '" + option + "'"
}

// Quote is one trace quote resolved to its symbol and served text.
type Quote struct {
	Symbol string
	Price  float64
	SQL    string
	// Expected is the watched option's price after this quote (0 when
	// the stock has no option and freshness does not track it).
	Expected float64
}

// quotes resolves the whole trace before timing starts.
func (in *Inputs) quotes(ref *Reference) ([]Quote, error) {
	out := make([]Quote, len(in.Trace.Quotes))
	for i, q := range in.Trace.Quotes {
		sym := feed.Symbol(q.Stock)
		out[i] = Quote{
			Symbol: sym,
			Price:  q.Price,
			SQL:    updateSQL(sym, q.Price),
		}
		if o, ok := ref.Watch[sym]; ok {
			v, err := ref.OptionPrice(o, q.Price)
			if err != nil {
				return nil, err
			}
			out[i].Expected = v
		}
	}
	return out, nil
}

// watch registers every stock that has an option with the matcher, at its
// initial watched price.
func watch(m *Matcher, ref *Reference, in *Inputs) error {
	for i, p := range in.Trace.Initial {
		sym := feed.Symbol(i)
		o, ok := ref.Watch[sym]
		if !ok {
			continue
		}
		v, err := ref.OptionPrice(o, p)
		if err != nil {
			return err
		}
		m.Watch(sym, v)
	}
	return nil
}

// finalPrices is the price of every stock after the given quotes.
func (in *Inputs) finalPrices(applied []Quote) map[string]float64 {
	out := make(map[string]float64, len(in.Trace.Initial))
	for i, p := range in.Trace.Initial {
		out[feed.Symbol(i)] = p
	}
	for _, q := range applied {
		out[q.Symbol] = q.Price
	}
	return out
}
