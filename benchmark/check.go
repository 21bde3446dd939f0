package main

import (
	"fmt"
	"math"
	"sort"

	strip "github.com/stripdb/strip"
	"github.com/stripdb/strip/internal/finance"
)

// Reference recomputes the derived tables from the generated inputs: the
// base tables Setup populated (composite weights, option terms, stock
// volatilities), which no workload modifies.
type Reference struct {
	Members map[string][]member // comp → its stocks and weights
	Options map[string]optTerms // option → terms
	Stdev   map[string]float64  // stock → volatility
	// Watch names the option whose price tracks each stock for freshness:
	// the stock's lowest-numbered option.
	Watch map[string]string
}

type member struct {
	symbol string
	weight float64
}

type optTerms struct {
	stock      string
	strike     float64
	expiration float64
}

// LoadReference reads the generated inputs back from a freshly set-up
// database.
func LoadReference(db *strip.DB) (*Reference, error) {
	ref := &Reference{
		Members: make(map[string][]member),
		Options: make(map[string]optTerms),
		Stdev:   make(map[string]float64),
		Watch:   make(map[string]string),
	}
	rows, err := queryAll(db, `select comp, symbol, weight from comps_list`)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		c := r[0].Str()
		ref.Members[c] = append(ref.Members[c], member{r[1].Str(), r[2].Float()})
	}
	if rows, err = queryAll(db, `select option_symbol, stock_symbol, strike, expiration from options_list`); err != nil {
		return nil, err
	}
	for _, r := range rows {
		o, s := r[0].Str(), r[1].Str()
		ref.Options[o] = optTerms{s, r[2].Float(), r[3].Float()}
		if w, ok := ref.Watch[s]; !ok || o < w {
			ref.Watch[s] = o
		}
	}
	if rows, err = queryAll(db, `select symbol, stdev from stock_stdev`); err != nil {
		return nil, err
	}
	for _, r := range rows {
		ref.Stdev[r[0].Str()] = r[1].Float()
	}
	return ref, nil
}

// OptionPrice is the Black-Scholes price of option o at underlying price s.
func (r *Reference) OptionPrice(o string, s float64) (float64, error) {
	t, ok := r.Options[o]
	if !ok {
		return 0, fmt.Errorf("unknown option %s", o)
	}
	return finance.BlackScholesCall(s, t.strike, finance.RisklessRate, t.expiration, r.Stdev[t.stock])
}

// Check compares derived rows against the reference at the given final
// stock prices. Composite prices are maintained by summing deltas, so
// they match within a relative tolerance; option prices are recomputed
// from scratch and must match to rounding.
func (r *Reference) Check(prices, comps, options map[string]float64) error {
	var bad []string
	for c, ms := range r.Members {
		want := 0.0
		for _, m := range ms {
			want += m.weight * prices[m.symbol]
		}
		got, ok := comps[c]
		if !ok || math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
			bad = append(bad, fmt.Sprintf("comp_prices[%s]=%v, want %v", c, got, want))
		}
	}
	for o, t := range r.Options {
		want, err := r.OptionPrice(o, prices[t.stock])
		if err != nil {
			return err
		}
		got, ok := options[o]
		if !ok || !samePrice(got, want) {
			bad = append(bad, fmt.Sprintf("option_prices[%s]=%v, want %v", o, got, want))
		}
	}
	if len(comps) != len(r.Members) || len(options) != len(r.Options) {
		bad = append(bad, fmt.Sprintf("derived row counts %d/%d, want %d/%d",
			len(comps), len(options), len(r.Members), len(r.Options)))
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("%d derived rows wrong, first: %s", len(bad), bad[0])
}

// CheckDB reads the base and derived tables and checks them against the
// reference at the prices stocks holds.
func (r *Reference) CheckDB(db *strip.DB) error {
	prices, err := tableMap(db, `select symbol, price from stocks`)
	if err != nil {
		return err
	}
	comps, err := tableMap(db, `select comp, price from comp_prices`)
	if err != nil {
		return err
	}
	options, err := tableMap(db, `select option_symbol, price from option_prices`)
	if err != nil {
		return err
	}
	return r.Check(prices, comps, options)
}

// CheckPrices verifies that stocks holds each expected final price.
func CheckPrices(db *strip.DB, want map[string]float64) error {
	got, err := tableMap(db, `select symbol, price from stocks`)
	if err != nil {
		return err
	}
	for s, p := range want {
		if got[s] != p {
			return fmt.Errorf("stocks[%s]=%v, want acked %v", s, got[s], p)
		}
	}
	return nil
}

func queryAll(db *strip.DB, sql string) ([][]strip.Value, error) {
	sel, err := strip.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	rows, _, err := db.Query(sel)
	return rows, err
}

// tableMap reads a two-column (text key, float value) query into a map.
func tableMap(db *strip.DB, sql string) (map[string]float64, error) {
	rows, err := queryAll(db, sql)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(rows))
	for _, r := range rows {
		out[r[0].Str()] = r[1].Float()
	}
	return out, nil
}
