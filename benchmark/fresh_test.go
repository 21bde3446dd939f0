package main

import (
	"errors"
	"testing"
	"time"
)

var errTest = errors.New("test failure")

var t0 = time.Unix(1000, 0)

func at(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }

// quote sends and acks one quote of stock "S" at ack ms.
func quote(m *Matcher, v float64, ack int) int {
	i := m.Sent("S", v)
	m.Acked("S", i, at(ack))
	return i
}

func samples(m *Matcher) []float64 {
	s, _ := m.Samples()
	return s
}

func TestMatcherFirstReflectingRead(t *testing.T) {
	m := NewMatcher()
	m.Watch("S", 10)
	quote(m, 11, 0)
	if !m.Observe("S", 10, at(1), at(2)) {
		t.Fatal("the initial value must match")
	}
	if len(samples(m)) != 0 || !m.Pending("S") {
		t.Fatal("a stale read must not resolve the quote")
	}
	if !m.Observe("S", 11, at(5), at(7)) {
		t.Fatal("the quote's value must match")
	}
	if s := samples(m); len(s) != 1 || s[0] != 7 {
		t.Fatalf("samples = %v, want [7] (ack at 0, reflecting read returned at 7)", s)
	}
	if m.Pending("S") {
		t.Fatal("resolved quote still pending")
	}
}

func TestMatcherLaterQuoteResolvesEarlier(t *testing.T) {
	m := NewMatcher()
	m.Watch("S", 10)
	quote(m, 11, 0)
	quote(m, 12, 3)
	// A merged recompute skips 11: reading 12 reflects both quotes.
	m.Observe("S", 12, at(4), at(6))
	if s := samples(m); len(s) != 2 || s[0] != 6 || s[1] != 3 {
		t.Fatalf("samples = %v, want [6 3]", s)
	}
}

func TestMatcherReadSentBeforeAck(t *testing.T) {
	m := NewMatcher()
	m.Watch("S", 10)
	quote(m, 11, 5)
	// The read was sent before the ack, so it cannot count even though it
	// returned the new value; the next read does.
	m.Observe("S", 11, at(4), at(6))
	if len(samples(m)) != 0 {
		t.Fatal("a read sent before the ack resolved the quote")
	}
	m.Observe("S", 11, at(8), at(9))
	if s := samples(m); len(s) != 1 || s[0] != 4 {
		t.Fatalf("samples = %v, want [4]", s)
	}
}

func TestMatcherRepeatedEqualPrices(t *testing.T) {
	// A → B → A with B observed: the second A is unambiguous.
	m := NewMatcher()
	m.Watch("S", 10)
	quote(m, 11, 0)
	m.Observe("S", 11, at(1), at(2))
	quote(m, 10, 10)
	m.Observe("S", 10, at(11), at(13))
	if s := samples(m); len(s) != 2 || s[1] != 3 {
		t.Fatalf("samples = %v, want second sample 3", s)
	}

	// A → B → A with B never observed: reading A may be the initial state,
	// so it resolves nothing, and Settle closes both quotes unsampled.
	m = NewMatcher()
	m.Watch("S", 10)
	quote(m, 11, 0)
	quote(m, 10, 1)
	m.Observe("S", 10, at(2), at(3))
	if len(samples(m)) != 0 || !m.Pending("S") {
		t.Fatal("an ambiguous read resolved a quote")
	}
	if !m.Settle("S", 10) {
		t.Fatal("settle: the last quote's value must match")
	}
	if s, unsampled := m.Samples(); len(s) != 0 || unsampled != 2 || m.Pending("S") {
		t.Fatalf("after settle: samples %v unsampled %d", s, unsampled)
	}

	// A → B → A → C with only A and C observed: C resolves B and the second
	// A, but only C is sampled; the read of A may have reflected both.
	m = NewMatcher()
	m.Watch("S", 10)
	quote(m, 11, 0)
	quote(m, 10, 1)
	m.Observe("S", 10, at(2), at(3))
	quote(m, 12, 20)
	m.Observe("S", 12, at(21), at(22))
	if s, unsampled := m.Samples(); len(s) != 1 || s[0] != 2 || unsampled != 2 {
		t.Fatalf("samples %v unsampled %d, want [2] and 2", s, unsampled)
	}
}

func TestMatcherRejectsWrongDerivedValue(t *testing.T) {
	m := NewMatcher()
	m.Watch("S", 10)
	quote(m, 11, 0)
	if m.Observe("S", 11.5, at(1), at(2)) {
		t.Fatal("a value no quote explains must not match")
	}
	m.Observe("S", 11, at(3), at(4))
	// Derived rows never regress: the initial value is now below the floor.
	if m.Observe("S", 10, at(5), at(6)) {
		t.Fatal("a regressed derived value must not match")
	}
	if m.Settle("S", 10) {
		t.Fatal("settle must reject a value other than the last quote's")
	}
}

func TestMatcherFailedQuoteNeverMatches(t *testing.T) {
	m := NewMatcher()
	m.Watch("S", 10)
	i := m.Sent("S", 11)
	m.Failed("S", i)
	if m.Observe("S", 11, at(1), at(2)) {
		t.Fatal("a failed quote's value matched")
	}
	quote(m, 12, 3)
	m.Observe("S", 12, at(4), at(5))
	if s := samples(m); len(s) != 1 || s[0] != 2 {
		t.Fatalf("samples = %v, want [2]: failed quotes are not sampled", s)
	}
}

func TestMatcherDiscardKeepsPendingQuotes(t *testing.T) {
	m := NewMatcher()
	m.Watch("S", 10)
	quote(m, 11, 0)
	m.Observe("S", 11, at(1), at(2))
	quote(m, 12, 3)
	m.Discard()
	if s, unsampled := m.Samples(); len(s) != 0 || unsampled != 0 {
		t.Fatalf("after Discard: samples %v, unsampled %d; want none", s, unsampled)
	}
	if !m.Pending("S") {
		t.Fatal("Discard must keep the quote acked before it pending")
	}
	m.Observe("S", 12, at(4), at(9))
	if s := samples(m); len(s) != 1 || s[0] != 6 {
		t.Fatalf("samples = %v, want [6] (ack at 3, reflecting read returned at 9)", s)
	}
}
