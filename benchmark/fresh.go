package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	strip "github.com/stripdb/strip"
	"github.com/stripdb/strip/client"
)

// Matcher measures client-side freshness: for each acked quote, the time
// from its ack to the first read, sent after that ack, which returns the
// watched option price computed from that quote or a later one.
//
// A read returns a value, not a version, so the matcher keeps per stock
// the expected watched price after every quote sent so far and a floor:
// the lowest quote index the derived row is known to reflect. Derived
// rows are assumed never to regress, so a read reflects the smallest
// index at or above the floor whose expected value equals it. When a price
// returns to an earlier level (A → B → A) and B was never observed, a read
// of A is ambiguous: it resolves only up to the earlier A, and the later
// quote is closed unsampled when a later distinct value or Settle, once
// the engine is idle, resolves it. Unsampled quotes are counted.
type Matcher struct {
	mu        sync.Mutex
	stocks    map[string]*track
	samples   []float64 // freshness, ms
	unsampled int       // quotes closed without a sample (ambiguous or settled)
}

type track struct {
	vals  []float64   // expected watched price after quote i (0 = initial)
	acks  []time.Time // ack time of quote i; zero until acked
	blind []bool      // quote i was ambiguous in some read: close it unsampled
	floor int         // lowest index the derived row is known to reflect
	next  int         // lowest index not yet resolved
}

// NewMatcher starts tracking nothing.
func NewMatcher() *Matcher { return &Matcher{stocks: make(map[string]*track)} }

// Watch tracks stock, whose watched option is priced initial now.
func (m *Matcher) Watch(stock string, initial float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stocks[stock] = &track{vals: []float64{initial}, acks: []time.Time{{}}, blind: []bool{false}, next: 1}
}

// Sent registers a quote about to be sent and returns its index, or -1
// when the stock is not tracked.
func (m *Matcher) Sent(stock string, expected float64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.stocks[stock]
	if !ok {
		return -1
	}
	t.vals = append(t.vals, expected)
	t.acks = append(t.acks, time.Time{})
	t.blind = append(t.blind, false)
	return len(t.vals) - 1
}

// Acked records the ack of quote idx.
func (m *Matcher) Acked(stock string, idx int, at time.Time) {
	if idx < 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stocks[stock].acks[idx] = at
}

// Failed withdraws quote idx: it was never applied, so its value must
// never match and it yields no freshness sample.
func (m *Matcher) Failed(stock string, idx int) {
	if idx < 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.stocks[stock]
	t.vals[idx] = math.NaN()
	t.acks[idx] = time.Unix(0, 0)
}

// Discard drops the samples and the unsampled count taken so far, so a
// warm-up leaves none behind; quotes still unresolved stay tracked.
func (m *Matcher) Discard() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.samples, m.unsampled = nil, 0
}

// Pending reports whether stock has an acked quote not yet resolved.
func (m *Matcher) Pending(stock string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.stocks[stock]
	return ok && t.next < len(t.vals) && !t.acks[t.next].IsZero()
}

// Observe feeds one read of stock's watched option, sent at sent and
// returned at done with value v. It reports whether v matched any quote
// at or above the floor; a false result means the derived row holds a
// value no quote explains.
func (m *Matcher) Observe(stock string, v float64, sent, done time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.stocks[stock]
	if !ok {
		return true
	}
	j := -1
	for i := t.floor; i < len(t.vals); i++ {
		if samePrice(t.vals[i], v) {
			j = i
			break
		}
	}
	if j < 0 {
		return false
	}
	t.floor = j
	m.resolve(t, j, sent, done)
	// If a later quote has the same price, this read may already reflect
	// it and every quote before it; whichever read resolves those later
	// cannot say when they were reflected, so they are closed unsampled.
	last := -1
	for k := j + 1; k < len(t.vals); k++ {
		if samePrice(t.vals[k], v) {
			last = k
		}
	}
	for k := max(j+1, t.next); k <= last; k++ {
		t.blind[k] = true
	}
	return true
}

// Settle closes every pending quote of stock once the engine is idle, so
// the derived row reflects the last quote. Those quotes were never told
// apart from an earlier state, so they are counted, not sampled: a sample
// taken now would measure the window's length. It reports whether v is the
// last quote's expected value.
func (m *Matcher) Settle(stock string, v float64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.stocks[stock]
	if !ok {
		return true
	}
	last := len(t.vals) - 1
	for ; t.next <= last; t.next++ {
		if !math.IsNaN(t.vals[t.next]) {
			m.unsampled++
		}
	}
	t.floor = last
	return samePrice(t.vals[last], v)
}

// resolve closes every acked quote up to index j whose ack precedes the
// read's send time.
func (m *Matcher) resolve(t *track, j int, sent, done time.Time) {
	for t.next <= j {
		ack := t.acks[t.next]
		if ack.IsZero() || ack.After(sent) {
			return
		}
		switch {
		case math.IsNaN(t.vals[t.next]):
		case t.blind[t.next]:
			m.unsampled++
		default:
			m.samples = append(m.samples, ms(done.Sub(ack)))

		}
		t.next++
	}
}

// Samples returns the freshness samples (ms) and how many quotes were
// closed without a sample.
func (m *Matcher) Samples() ([]float64, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]float64(nil), m.samples...), m.unsampled
}

// Unresolved lists stocks with quotes still unresolved.
func (m *Matcher) Unresolved() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for s, t := range m.stocks {
		if t.next < len(t.vals) {
			out = append(out, s)
		}
	}
	return out
}

// samePrice compares derived prices: both sides come from the same
// Black-Scholes code on the same float64 inputs, so only encoding round
// trips can differ, and those by far less than this tolerance.
func samePrice(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// settle closes quotes still unresolved once the engine is idle: the
// derived rows now reflect every acked quote, so one read of each such
// stock's watched option must return its last quote's price.
func settle(m *Matcher, watch map[string]string, w *Window, query func(string) ([][]strip.Value, error)) error {
	for _, stock := range m.Unresolved() {
		rows, err := query(watch[stock])
		if err != nil {
			return fmt.Errorf("settle %s: %w", stock, err)
		}
		if len(rows) != 1 || !m.Settle(stock, rows[0][0].Float()) {
			w.fail(1, fmt.Errorf("settle %s: derived price does not reflect the last quote", stock))
		}
	}
	return nil
}

// served runs reads on a client connection.
func served(c *client.Client) func(string) ([][]strip.Value, error) {
	return func(sql string) ([][]strip.Value, error) {
		res, err := c.Query(sql)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	}
}

// embedded runs reads on the engine directly.
func embedded(db *strip.DB) func(string) ([][]strip.Value, error) {
	return func(sql string) ([][]strip.Value, error) {
		res, err := db.Exec(sql)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	}
}
