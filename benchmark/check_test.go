package main

import (
	"testing"

	strip "github.com/stripdb/strip"
	"github.com/stripdb/strip/internal/feed"
	"github.com/stripdb/strip/internal/ptabench"
)

// smallReference builds a two-stock reference by hand.
func smallReference() *Reference {
	return &Reference{
		Members: map[string][]member{"C1": {{"A", 0.25}, {"B", 0.75}}},
		Options: map[string]optTerms{"O1": {"A", 100, 0.5}, "O2": {"B", 50, 1}},
		Stdev:   map[string]float64{"A": 0.2, "B": 0.3},
		Watch:   map[string]string{"A": "O1", "B": "O2"},
	}
}

// derived computes the correct derived rows for prices.
func derived(t *testing.T, ref *Reference, prices map[string]float64) (comps, options map[string]float64) {
	t.Helper()
	comps = map[string]float64{"C1": 0.25*prices["A"] + 0.75*prices["B"]}
	options = map[string]float64{}
	for o, terms := range ref.Options {
		v, err := ref.OptionPrice(o, prices[terms.stock])
		if err != nil {
			t.Fatal(err)
		}
		options[o] = v
	}
	return comps, options
}

func TestReferenceCheck(t *testing.T) {
	ref := smallReference()
	prices := map[string]float64{"A": 101.125, "B": 49.5}
	comps, options := derived(t, ref, prices)
	if err := ref.Check(prices, comps, options); err != nil {
		t.Fatalf("correct rows rejected: %v", err)
	}
	// Composite prices are summed deltas: rounding noise must pass.
	comps["C1"] *= 1 + 1e-12
	if err := ref.Check(prices, comps, options); err != nil {
		t.Fatalf("rounding noise rejected: %v", err)
	}
}

func TestReferenceCheckRejectsWrongRows(t *testing.T) {
	ref := smallReference()
	prices := map[string]float64{"A": 101.125, "B": 49.5}
	for name, corrupt := range map[string]func(c, o map[string]float64){
		"stale composite":   func(c, o map[string]float64) { c["C1"] += 0.25 * 0.125 },
		"stale option":      func(c, o map[string]float64) { o["O1"] *= 1.001 },
		"missing option":    func(c, o map[string]float64) { delete(o, "O2") },
		"missing composite": func(c, o map[string]float64) { delete(c, "C1") },
		"extra option":      func(c, o map[string]float64) { o["O9"] = 1 },
	} {
		comps, options := derived(t, ref, prices)
		corrupt(comps, options)
		if err := ref.Check(prices, comps, options); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

// TestCheckDBOnPopulation runs the reference check against a real
// populated engine, before and after a deliberately wrong derived row.
func TestCheckDBOnPopulation(t *testing.T) {
	cfg := ptabench.TinyScale()
	tr, err := feed.Generate(cfg.Feed)
	if err != nil {
		t.Fatal(err)
	}
	db := strip.MustOpen(strip.Config{Virtual: true})
	defer db.Close()
	if _, err := ptabench.Setup(db, tr, cfg); err != nil {
		t.Fatal(err)
	}
	ref, err := LoadReference(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.CheckDB(db); err != nil {
		t.Fatalf("fresh population rejected: %v", err)
	}
	var opt string
	for o := range ref.Options {
		opt = o
		break
	}
	db.MustExec("update option_prices set price = 0.5 where option_symbol = '" + opt + "'")
	if err := ref.CheckDB(db); err == nil {
		t.Fatal("a wrong option price passed the check")
	}
	db.MustExec("update stocks set price = 1 where symbol = '" + feed.Symbol(0) + "'")
	if err := CheckPrices(db, map[string]float64{feed.Symbol(0): tr.Initial[0]}); err == nil {
		t.Fatal("a lost acked quote passed the check")
	}
}
