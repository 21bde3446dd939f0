package main

import (
	"math"
	"sync"
	"time"
)

// Window collects one measured window's samples. Latencies are in ms; a
// failed request is recorded as +Inf so it misses every latency limit.
type Window struct {
	mu      sync.Mutex
	Start   time.Time
	Elapsed time.Duration // from Start until derived data drained
	// Paused is time inside Elapsed that the write headline leaves out:
	// pta_replay's embedded reads, which share the replay thread.
	Paused   time.Duration
	AckedAt  []float64 // seconds from Start, less Paused so far, to each acked write
	ReadAt   []float64 // seconds from Start to each completed read
	Writes   []float64
	Points   []float64
	Scans    []float64
	Ops      Ops
	Applied  []Quote // acked quotes in ack order
	Reads    int     // completed reads, polls excluded
	Polls    int     // reads of a just-written stock's option, waiting for it to reflect the quote
	ReadyMax int     // largest ready-queue depth sampled
	FirstErr error   // first failure, for the diagnostic on standard error
}

func (w *Window) noteErr(err error) {
	if w.FirstErr == nil {
		w.FirstErr = err
	}
}

func newWindow() *Window { return &Window{Start: time.Now()} }

func (w *Window) write(q Quote, lat float64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.Ops.Attempted++
	if err != nil {
		w.Ops.Failed++
		w.noteErr(err)
		lat = math.Inf(1)
	} else {
		w.Applied = append(w.Applied, q)
		w.AckedAt = append(w.AckedAt, (time.Since(w.Start) - w.Paused).Seconds())
	}
	w.Writes = append(w.Writes, lat)
}

func (w *Window) read(scan bool, lat float64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.Ops.Attempted++
	if err != nil {
		w.Ops.Failed++
		w.noteErr(err)
		lat = math.Inf(1)
	} else {
		w.Reads++
		w.ReadAt = append(w.ReadAt, time.Since(w.Start).Seconds())
	}
	if scan {
		w.Scans = append(w.Scans, lat)
	} else {
		w.Points = append(w.Points, lat)
	}
}

// poll counts a freshness poll: an operation, and a failure if err is
// set, but not a read, so polls stay out of read latencies and read_qps.
func (w *Window) poll(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.Ops.Attempted++
	w.Polls++
	if err != nil {
		w.Ops.Failed++
		w.noteErr(err)
	}
}

// pause leaves d out of the write headline's time.
func (w *Window) pause(d time.Duration) {
	w.mu.Lock()
	w.Paused += d
	w.mu.Unlock()
}

// writeSeconds is the time the write headline counts: Elapsed less Paused.
func (w *Window) writeSeconds() float64 { return (w.Elapsed - w.Paused).Seconds() }

func (w *Window) ready(n int) {
	w.mu.Lock()
	w.ReadyMax = max(w.ReadyMax, n)
	w.mu.Unlock()
}

// fail counts failures outside any request, such as rule task errors or
// a derived value no quote explains.
func (w *Window) fail(n int64, err error) {
	w.mu.Lock()
	w.Ops.Attempted += n
	w.Ops.Failed += n
	w.noteErr(err)
	w.mu.Unlock()
}

// merge appends o's samples to w, for windows measured in halves.
func (w *Window) merge(o *Window) {
	for _, t := range o.AckedAt {
		w.AckedAt = append(w.AckedAt, w.writeSeconds()+t)
	}
	for _, t := range o.ReadAt {
		w.ReadAt = append(w.ReadAt, w.Elapsed.Seconds()+t)
	}
	w.Elapsed += o.Elapsed
	w.Paused += o.Paused
	w.Writes = append(w.Writes, o.Writes...)
	w.Points = append(w.Points, o.Points...)
	w.Scans = append(w.Scans, o.Scans...)
	w.Ops.Attempted += o.Ops.Attempted
	w.Ops.Failed += o.Ops.Failed
	if o.FirstErr != nil {
		w.noteErr(o.FirstErr)
	}
	w.Applied = append(w.Applied, o.Applied...)
	w.Reads += o.Reads
	w.Polls += o.Polls
	w.ReadyMax = max(w.ReadyMax, o.ReadyMax)
}

// rateSlices is how many equal time slices a window's throughput is cut
// into; the reported rate is the median over them, so one burst of
// interference from outside the benchmark moves it little.
const rateSlices = 5

// slicedRate is the median over equal time slices of [0, elapsed) of the
// events per second completed in each; the last slice ends at elapsed.
func slicedRate(at []float64, elapsed float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	counts := make([]float64, rateSlices)
	for _, t := range at {
		i := min(int(t/elapsed*rateSlices), rateSlices-1)
		counts[i]++
	}
	for i := range counts {
		counts[i] /= elapsed / rateSlices
	}
	return Median(counts)
}

// slicedP99 cuts samples (in arrival order) into up to ten consecutive
// parts of at least 200 and returns the median of the parts' nearest-rank
// p99s: the p99 of a typical stretch of the run, which a burst of outside
// interference confined to a few stretches does not move. With fewer than
// 400 samples it is the plain p99.
func slicedP99(samples []float64) float64 {
	k := min(10, len(samples)/200)
	if k < 2 {
		return Summarize(samples).P99
	}
	n := len(samples) / k
	p := make([]float64, k)
	for i := range p {
		p[i] = Summarize(samples[i*n : (i+1)*n]).P99
	}
	return Median(p)
}

// endToEnd computes the user-visible metrics of a window.
func endToEnd(w *Window, fresh []float64, setup []float64, heapMB float64) Metrics {
	m := Metrics{}
	sec := w.Elapsed.Seconds()
	m.set("setup_s", "s", Median(setup))
	m.set("replay_quotes_per_s", "1/s", slicedRate(w.AckedAt, w.writeSeconds()))
	m.set("write_p50_ms", "ms", Median(w.Writes))
	m.set("write_p99_ms", "ms", slicedP99(w.Writes))
	m.set("fresh_p50_ms", "ms", Median(fresh))
	m.set("fresh_p99_ms", "ms", slicedP99(fresh))
	m.set("point_p50_ms", "ms", Median(w.Points))
	m.set("scan_p50_ms", "ms", Median(w.Scans))
	m.set("scan_p99_ms", "ms", slicedP99(w.Scans))
	m.set("read_qps", "1/s", slicedRate(w.ReadAt, sec))
	m.set("success_frac", "ratio", 1-w.Ops.FailedFrac())
	m.set("live_heap_mb", "MB", heapMB)
	return m
}
