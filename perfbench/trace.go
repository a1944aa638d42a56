package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"time"
)

// The traced run records spans from the benchmark's own files around
// each call into a runtime layer: name, start, end and parent, with the
// spans of one request (or of one replay pass and program) sharing an
// id. Spans are folded as they close — self time per layer, a duration
// histogram per call, containment checks — and the first keepSpans of
// them are kept in memory and written out when the run ends.

// span names: the runtime calls first (they index the histograms),
// then the benchmark's own spans.
type spanName uint8

const (
	cNewRegion spanName = iota
	cNewSubregion
	cDelete
	cDeleteDeferred
	cPin
	cAlloc
	cSetRef
	cSetSame
	cSetTrad
	cSetParent
	cAcquire
	cAcquireCtx
	cRelease
	cOwnerDelete
	cAllocOwned
	cSetSameOwned
	cSetTradOwned
	cSlabAlloc
	numCalls
)

const (
	sPass spanName = numCalls + iota
	sEpoch
	sRequest
	sSubrequest
	sSession
	sProgram // + program index
)

// layer is a repository module, or the benchmark itself.
type layer uint8

const (
	lAPI layer = iota
	lAllocCache
	lStore
	lOwner
	lSlab
	lBench
	numLayers
)

var layerNames = [numLayers]string{"api", "alloccache", "store", "owner", "slab", "bench"}

var callNames = [numCalls]string{
	"api.new_region", "api.new_subregion", "api.delete", "api.delete_deferred", "api.pin",
	"alloccache.alloc",
	"store.set_ref", "store.set_same", "store.set_trad", "store.set_parent",
	"owner.acquire", "owner.acquire_ctx", "owner.release", "owner.delete",
	"owner.alloc_owned", "owner.set_same_owned", "owner.set_trad_owned",
	"slab.alloc",
}

var callLayers = [numCalls]layer{
	lAPI, lAPI, lAPI, lAPI, lAPI,
	lAllocCache,
	lStore, lStore, lStore, lStore,
	lOwner, lOwner, lOwner, lOwner, lOwner, lOwner, lOwner,
	lSlab,
}

func (n spanName) String() string {
	switch {
	case n < numCalls:
		return callNames[n]
	case n == sPass:
		return "bench.pass"
	case n == sEpoch:
		return "bench.epoch"
	case n == sRequest:
		return "service.request"
	case n == sSubrequest:
		return "bench.subrequest"
	case n == sSession:
		return "bench.session"
	case int(n-sProgram) < len(programNames):
		return "replay." + programNames[n-sProgram]
	}
	return fmt.Sprintf("span(%d)", n)
}

func (n spanName) layer() layer {
	if n < numCalls {
		return callLayers[n]
	}
	return lBench
}

// clock converts TSC ticks to nanoseconds.
type clock struct {
	perNs   float64 // ticks per nanosecond
	timerNs float64 // cost of one back-to-back timestamp pair
}

func newClock() *clock {
	t0 := time.Now()
	c0 := ticks()
	for time.Since(t0) < 20*time.Millisecond {
	}
	c1 := ticks()
	el := time.Since(t0)
	c := &clock{perNs: float64(c1-c0) / float64(el.Nanoseconds())}
	best := int64(1 << 62)
	for i := 0; i < 10000; i++ {
		a := ticks()
		if d := ticks() - a; d < best {
			best = d
		}
	}
	c.timerNs = c.ns(best)
	return c
}

func (c *clock) ns(t int64) float64 { return float64(t) / c.perNs }

// hist is a log-linear histogram: exact below 128, then 64 buckets per
// power of two (under 1.6% relative error) up to 2^40; larger values
// land in the last bucket.
type hist struct {
	b []uint64
	n uint64
}

const histLen = 64*34 + 128

func histIndex(v int64) int {
	if v < 128 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 7
	return min(64*e+int(uint64(v)>>e), histLen-1)
}

func histValue(i int) int64 {
	if i < 128 {
		return int64(i)
	}
	e := i/64 - 1
	m := int64(i - 64*e)
	return m<<e + (int64(1)<<e)/2
}

func (h *hist) add(v int64) {
	if h.b == nil {
		h.b = make([]uint64, histLen)
	}
	h.b[histIndex(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	if o.n == 0 {
		return
	}
	if h.b == nil {
		h.b = make([]uint64, histLen)
	}
	for i, c := range o.b {
		h.b[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q <= 1), or 0 when empty.
func (h *hist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	want := uint64(q*float64(h.n) + 0.5)
	if want < 1 {
		want = 1
	}
	var seen uint64
	for i, c := range h.b {
		seen += c
		if seen >= want {
			return histValue(i)
		}
	}
	return histValue(len(h.b) - 1)
}

// spanRec is one kept span, as written out.
type spanRec struct {
	Name   string  `json:"name"`
	ID     uint64  `json:"id"`
	Parent int32   `json:"parent"` // index of the parent record, -1 for a root
	Start  float64 `json:"start_ns"`
	End    float64 `json:"end_ns"`
}

type openSpan struct {
	name     spanName
	start    int64
	lastEnd  int64 // end of the latest closed child (start if none)
	childSum int64 // summed durations of closed children
	kept     int32 // index in kept, -1 if not kept
}

// keepSpans bounds the spans kept for writing out per tracer.
const keepSpans = 1 << 15

// tracer records the spans of one goroutine. A nil *tracer is the
// untraced path: callers test for nil before reading the clock.
type tracer struct {
	unit  uint64 // id shared by the spans of the current request or pass+program
	stack []openSpan
	calls [numCalls]hist // leaf call durations, ticks
	self  [numLayers]int64
	roots int64 // summed root-span durations, ticks
	// benchSelf accumulates the current root's bench-layer self time;
	// unitBench is its distribution over roots.
	benchSelf int64
	unitBench hist

	kept       []spanRec
	base       int64
	violations int64
	firstBad   string
}

func newTracer(base int64) *tracer { return &tracer{base: base} }

func (t *tracer) bad(format string, args ...any) {
	if t.violations == 0 {
		t.firstBad = fmt.Sprintf(format, args...)
	}
	t.violations++
}

func (t *tracer) keep(name spanName, parent int32, start int64) int32 {
	if len(t.kept) >= keepSpans || (len(t.stack) > 0 && parent < 0) {
		return -1
	}
	t.kept = append(t.kept, spanRec{Name: name.String(), ID: t.unit, Parent: parent, Start: float64(start - t.base)})
	return int32(len(t.kept) - 1)
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name spanName) {
	now := ticks()
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		p := &t.stack[n-1]
		if now < p.lastEnd {
			t.bad("%v starts before its previous sibling ends under %v", name, p.name)
		}
		parent = p.kept
	}
	t.stack = append(t.stack, openSpan{name: name, start: now, lastEnd: now, kept: t.keep(name, parent, now)})
}

// end closes the innermost open span.
func (t *tracer) end() {
	now := ticks()
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	if now < s.lastEnd {
		t.bad("%v ends before its last child", s.name)
	}
	dur := now - s.start
	self := dur - s.childSum
	if self < 0 {
		t.bad("%v has children longer than itself", s.name)
	}
	t.self[s.name.layer()] += self
	if s.name.layer() == lBench {
		t.benchSelf += self
	}
	if s.kept >= 0 {
		t.kept[s.kept].End = float64(now - t.base)
	}
	if n == 0 {
		t.roots += dur
		t.unitBench.add(t.benchSelf)
		t.benchSelf = 0
		return
	}
	p := &t.stack[n-1]
	p.childSum += dur
	p.lastEnd = now
}

// call records a leaf span for a runtime call that started at t0.
func (t *tracer) call(name spanName, t0 int64) {
	now := ticks()
	dur := now - t0
	t.calls[name].add(dur)
	t.self[callLayers[name]] += dur
	n := len(t.stack)
	if n == 0 {
		t.bad("%v outside any span", name)
		return
	}
	p := &t.stack[n-1]
	if t0 < p.lastEnd {
		t.bad("%v starts before its previous sibling ends under %v", name, p.name)
	}
	p.childSum += dur
	p.lastEnd = now
	if i := t.keep(name, p.kept, t0); i >= 0 {
		t.kept[i].End = float64(now - t.base)
	}
}

// merge folds o into t (the kept spans are re-based on t's indices).
func (t *tracer) merge(o *tracer) {
	for i := range t.calls {
		t.calls[i].merge(&o.calls[i])
	}
	for i := range t.self {
		t.self[i] += o.self[i]
	}
	t.roots += o.roots
	t.unitBench.merge(&o.unitBench)
	off := int32(len(t.kept))
	for _, s := range o.kept {
		if s.Parent >= 0 {
			s.Parent += off
		}
		t.kept = append(t.kept, s)
	}
	if t.violations == 0 {
		t.firstBad = o.firstBad
	}
	t.violations += o.violations
	if len(o.stack) > 0 {
		t.bad("%d spans left open", len(o.stack))
	}
}

// writeSpans writes the kept spans, with timestamps in nanoseconds, as
// one JSON object per line.
func writeSpans(path string, clk *clock, spans []spanRec) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		s.Start /= clk.perNs
		s.End /= clk.perNs
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
