package main

import (
	"errors"
	"testing"
	"time"
)

// Paused time is left out of the write headline's clock and its merged
// offsets, but not out of the wall clock that reads are timed on.
func TestWindowPauseLeavesReadsOutOfWriteTime(t *testing.T) {
	a := &Window{Start: time.Now().Add(-3 * time.Second)}
	a.pause(2 * time.Second)
	a.write(Quote{}, 1, nil)
	if at := a.AckedAt[0]; at < 0.9 || at > 1.5 {
		t.Fatalf("ack at %.3f s of write time, want about 1 s", at)
	}
	a.read(false, 1, nil)
	if at := a.ReadAt[0]; at < 2.9 {
		t.Fatalf("read at %.3f s, want wall time of about 3 s", at)
	}
	a.Elapsed = 4 * time.Second
	if s := a.writeSeconds(); s != 2 {
		t.Fatalf("writeSeconds = %v, want 2", s)
	}

	b := &Window{Elapsed: 4 * time.Second, Paused: time.Second, AckedAt: []float64{0.5}, ReadAt: []float64{0.5}}
	a.merge(b)
	if at := a.AckedAt[1]; at != 2.5 {
		t.Fatalf("merged ack at %v, want 2.5 (after a's 2 s of write time)", at)
	}
	if at := a.ReadAt[1]; at != 4.5 {
		t.Fatalf("merged read at %v, want 4.5 (after a's 4 s of wall time)", at)
	}
	if a.writeSeconds() != 5 {
		t.Fatalf("merged writeSeconds = %v, want 5", a.writeSeconds())
	}
}

// Polls count as operations and failures but stay out of read samples.
func TestWindowPollsStayOutOfReads(t *testing.T) {
	w := newWindow()
	w.poll(nil)
	w.poll(errors.New("refused"))
	w.read(false, 1, nil)
	if w.Polls != 2 || w.Reads != 1 || len(w.Points) != 1 || len(w.ReadAt) != 1 {
		t.Fatalf("polls %d reads %d points %d read times %d, want 2 1 1 1",
			w.Polls, w.Reads, len(w.Points), len(w.ReadAt))
	}
	if w.Ops.Attempted != 3 || w.Ops.Failed != 1 {
		t.Fatalf("ops %+v, want 3 attempted 1 failed", w.Ops)
	}
}
