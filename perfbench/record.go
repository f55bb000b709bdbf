package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// span is one timed call into a layer's public entry point. Spans of one
// run share RunID; Parent is the index of the enclosing span, or -1.
type span struct {
	Name   string        `json:"name"`
	RunID  string        `json:"run"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	run   string
	spans []span
}

func newTracer(run string) *tracer { return &tracer{t0: time.Now(), run: run} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, RunID: t.run, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// add records an already-measured interval, for timings taken at fixed
// iteration counts where a span per iteration would dominate the cost.
func (t *tracer) add(name string, parent int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, RunID: t.run, Parent: parent, Start: s, End: s + d})
}

// spanCost is the time to open and close one span, at a fixed count.
func spanCost() float64 {
	t := newTracer("span-cost")
	return measure(10000, 10, func(int) { t.end(t.begin("cost", -1)) }).ns
}

// selfTimes sums, per span name, the span's duration minus the part of
// its interval that its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, cur := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.Name] += s.End - s.Start - covered
	}
	return self
}

// write stores the spans and their per-name self times as JSON under dir.
func (t *tracer) write(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	self := t.selfTimes()
	selfS := make(map[string]float64, len(self))
	for k, v := range self {
		selfS[k] = v.Seconds()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Run   string             `json:"run"`
		Spans []span             `json:"spans"`
		Self  map[string]float64 `json:"self_s"`
	}{t.run, t.spans, selfS})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), data, 0o644)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place. Empty input gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// measured is the outcome of a fixed-iteration timing: median wall time
// per iteration over several batches, and heap allocations per iteration
// counted over every iteration.
type measured struct {
	ns     float64
	allocs float64
}

// measure runs f iters times in batches of iters/batches, timing each
// batch, and counts allocations over all of them. The iteration count is
// fixed by the caller, never chosen adaptively, so alloc counts compare
// exactly across commits. Callers run it while no other goroutine of the
// benchmark allocates.
func measure(iters, batches int, f func(i int)) measured {
	per := iters / batches
	times := make([]float64, 0, batches)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	i := 0
	for b := 0; b < batches; b++ {
		t := time.Now()
		for k := 0; k < per; k++ {
			f(i)
			i++
		}
		times = append(times, float64(time.Since(t))/float64(per))
	}
	runtime.ReadMemStats(&after)
	return measured{ns: median(times), allocs: float64(after.Mallocs-before.Mallocs) / float64(i)}
}

// retainedHeapMB collects garbage and returns the live heap: the memory
// the system under test still holds.
func retainedHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// checks accumulates named output checks.
type checks struct {
	list []checkResult
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func (c *checks) add(name string, ok bool, format string, args ...any) {
	c.list = append(c.list, checkResult{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (c *checks) ok() bool {
	if len(c.list) == 0 {
		return false
	}
	for _, r := range c.list {
		if !r.OK {
			return false
		}
	}
	return true
}
