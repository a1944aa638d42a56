package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rcgo"
	"rcgo/internal/workloads"
)

// The service workload is the paper's apache pattern on the concurrent
// runtime: a closed loop of nproc clients, each request in its own
// region. A request builds its response under an uncontended Acquire,
// fills slab-backed body buffers, takes one counted reference into the
// shared cache epoch, runs two subrequests in subregions, sometimes
// appends to a shared session region through AcquireContext, and
// deletes its region.
//
// The request sizes and the session length come from the paper's
// apache program, run on the VM in setup (see measureTraffic).
// BENCHMARK_NOTES.md gives the source of every other constant.

const (
	servicePlans    = 16384                  // request plans, cycled
	sessions        = 4                      // shared session regions: "a few"
	sessionDeadline = 100 * time.Millisecond // AcquireContext deadline
	rotateEvery     = 64                     // requests per cache epoch, as in examples/webserver
	largeEvery      = 16                     // 1 request in 16 is large
	largeFactor     = 16                     // a large request is 16 small ones
	sessionEvery    = 4                      // 1 request in 4 appends to a session
	warmupRequests  = 16384                  // per setup, before measuring
	ringCapacity    = 1 << 14
	epochMagic      = 0x5eed_cafe
)

// conf is the server configuration in the traditional region. Its Ref
// field keeps it off the slabs: traditional objects are never reclaimed.
type conf struct {
	self rcgo.Ref[conf]
	id   int64
}

type resp struct {
	next rcgo.Ref[resp] // sameregion chain
	conf rcgo.Ref[conf] // traditional
	n    int64
}

type reqHdr struct {
	first rcgo.Ref[resp]       // sameregion
	cache rcgo.Ref[cacheEntry] // counted: holds the cache epoch
	id    int64
}

// cacheEntry stays on the GC heap (tag is a Go pointer): a request
// holds the entry's handle across a rotation that may reclaim the epoch,
// which DESIGN.md §16 allows only for heap-backed objects. A stale heap
// handle still names its dead region, so the counted store fails with
// ErrRegionDeleted; a stale slab handle would read recycled memory.
type cacheEntry struct {
	tag     string
	payload [2]uint64
}

// body is pointer-free, so it is slab-backed.
type body [32]uint64

type subReq struct {
	up rcgo.Ref[reqHdr] // parentptr to the request
	n  int64
}

type sessEntry struct {
	next rcgo.Ref[sessEntry] // sameregion
	req  int64
}

// traffic is what the service takes from the paper's apache program:
// apache handles each request in a region of its own, holding one
// request record and a list of headers, and runs subrequests in
// subregions, each storing one parentptr uplink. Its VM counts in qs
// mode (where every parentptr store is checked at run time) give:
//
//	subrequests = parentptr stores
//	requests    = regions created - subrequests
//	headers     = (allocations - regions created) / regions created
//	keep-alive  = requests / connections (the program's scale)
//
// A small service request builds a response of headers/2 to
// 3*headers/2 objects (apache's handle() draws 4 to 15 headers), and a
// session region is recycled after keep-alive appends, as a connection
// ends after its keep-alive requests.
type traffic struct {
	respLo, respHi int // a small request's response objects
	sessionCap     int // appends before a session region is recycled

	regions, subrequests, allocs, conns int64
	compileNs, runNs                    int64
}

func (t traffic) requests() int64 { return t.regions - t.subrequests }

func (t traffic) headers() float64 {
	return float64(t.allocs-t.regions) / float64(t.regions)
}

func measureTraffic() (traffic, error) {
	w := workloads.Apache
	t0 := time.Now()
	c, err := rcgo.Compile(w.Source(0), rcgo.ModeQS)
	if err != nil {
		return traffic{}, fmt.Errorf("compile apache: %w", err)
	}
	t1 := time.Now()
	res, err := rcgo.Run(c, rcgo.RunConfig{Output: io.Discard})
	if err != nil {
		return traffic{}, fmt.Errorf("run apache: %w", err)
	}
	st := res.Region
	t := traffic{
		regions: st.RegionsCreated, subrequests: st.ParentChecks, allocs: st.Allocs, conns: int64(w.DefaultScale),
		compileNs: t1.Sub(t0).Nanoseconds(), runNs: time.Since(t1).Nanoseconds(),
	}
	if t.requests() <= 0 || t.allocs <= t.regions {
		return traffic{}, fmt.Errorf("apache: unusable counts (%d regions, %d parentptr stores, %d allocations)", t.regions, t.subrequests, t.allocs)
	}
	h := t.headers()
	t.respLo = max(1, int(math.Round(h/2)))
	t.respHi = max(t.respLo, int(math.Round(3*h/2)))
	t.sessionCap = max(1, int(math.Round(float64(t.requests())/float64(t.conns))))
	return t, nil
}

// reqPlan is one seeded request shape.
type reqPlan struct {
	resps, bodies int
	session       int // -1 for none
	fill          uint64
}

// makePlans draws request shapes: 1 in largeEvery large, the rest
// small, and 1 in sessionEvery appending to a session. A small request
// has t.respLo to t.respHi response objects and 1 or 2 body buffers; a
// large one largeFactor times as many of each. The sizes are spread
// evenly over their ranges and the seed permutes them, so every seed
// asks for the same total work in a different order.
func makePlans(seed uint64, t traffic) []reqPlan {
	r := rng{nameSeed(seed, "service")}
	plans := make([]reqPlan, servicePlans)
	span := t.respHi - t.respLo + 1
	nLarge := servicePlans / largeEvery
	for i := range plans {
		p := &plans[i]
		if i%largeEvery == 0 {
			k := i / largeEvery
			p.resps = largeFactor*t.respLo + k*largeFactor*span/nLarge
			p.bodies = largeFactor + k*(largeFactor+1)/nLarge
		} else {
			p.resps, p.bodies = t.respLo+i%span, 1+i/largeEvery%2
		}
		p.session = -1
		if i%sessionEvery == 1 {
			p.session = i / sessionEvery % sessions
		}
	}
	for i := len(plans) - 1; i > 0; i-- {
		j := r.intn(uint64(i + 1))
		plans[i], plans[j] = plans[j], plans[i]
	}
	for i := range plans {
		plans[i].fill = r.next()
	}
	return plans
}

type session struct {
	r atomic.Pointer[rcgo.Region]
	// head and n are guarded by the region's Owner token.
	head *rcgo.Obj[sessEntry]
	n    int
}

type server struct {
	arena   *rcgo.Arena
	ring    *rcgo.RingTracer
	conf    *rcgo.Obj[conf]
	traffic traffic
	plans   []reqPlan
	next    atomic.Int64 // request sequence

	mu     sync.Mutex
	epoch  *rcgo.Region
	entry  *rcgo.Obj[cacheEntry]
	epochs uint64

	sess [sessions]session

	cal *calibrator
}

func newServer(seed uint64, t traffic) *server {
	ring := rcgo.NewRingTracer(ringCapacity)
	a := rcgo.NewArena(rcgo.WithOffHeapSlabs(), rcgo.WithMetrics(), rcgo.WithTracer(ring))
	s := &server{arena: a, ring: ring, traffic: t, plans: makePlans(seed, t)}
	s.conf = rcgo.Alloc[conf](a.Traditional())
	s.conf.Value.id = 1
	s.epoch = a.NewRegion()
	s.entry = rcgo.Alloc[cacheEntry](s.epoch)
	s.entry.Value.tag = "epoch"
	s.entry.Value.payload = [2]uint64{epochMagic, 0}
	for i := range s.sess {
		s.sess[i].r.Store(a.NewRegion())
	}
	return s
}

// shutdown retires the cache epoch and the session regions, leaving
// only the traditional region alive.
func (s *server) shutdown() error {
	s.mu.Lock()
	s.epoch.DeleteDeferred()
	s.epoch, s.entry = nil, nil
	s.mu.Unlock()
	for i := range s.sess {
		o, err := s.sess[i].r.Load().TryAcquire()
		if err != nil {
			return fmt.Errorf("shutdown: session %d: %w", i, err)
		}
		s.sess[i].head = nil
		if err := o.Delete(); err != nil {
			return fmt.Errorf("shutdown: session %d: %w", i, err)
		}
	}
	return nil
}

func (s *server) lookup() *rcgo.Obj[cacheEntry] {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entry
}

// client is one closed-loop client goroutine's state.
type client struct {
	s     *server
	tr    *tracer
	calls [numCalls]int64
	fails [numCalls]int64
	lat   hist   // request latency, reference ns
	cur   window // this window's requests, calls and latencies

	requests, failedReqs int64
	cached, uncached     int64
	bodiesOK, bodiesBad  int64
	unexpected           int64
	firstErr             error
	bodyBuf              []*rcgo.Obj[body]
	sums                 []uint64
}

func (c *client) now() int64 {
	if c.tr != nil {
		return ticks()
	}
	return 0
}

// done accounts one runtime call that started at t0.
func (c *client) done(k spanName, t0 int64, err error) {
	if c.tr != nil {
		c.tr.call(k, t0)
	}
	c.calls[k]++
	if err != nil {
		c.fails[k]++
	}
}

// oops records an error no request should see.
func (c *client) oops(k spanName, err error) {
	c.unexpected++
	if c.firstErr == nil {
		c.firstErr = fmt.Errorf("%v: %w", k, err)
	}
}

func fillBody(b *body, seed uint64) uint64 {
	var sum uint64
	v := seed
	for i := range b {
		v = v*6364136223846793005 + 1442695040888963407
		b[i] = v
		sum = sum*31 + v
	}
	return sum
}

func sumBody(b *body) uint64 {
	var sum uint64
	for _, v := range b {
		sum = sum*31 + v
	}
	return sum
}

// request serves request id; it reports false if the request failed.
func (c *client) request(id int64) bool {
	s, tr := c.s, c.tr
	p := &s.plans[id%servicePlans]
	if tr != nil {
		tr.unit = uint64(id)
		tr.begin(sRequest)
		defer tr.end()
	}
	ok := true

	// 1. The request's own region.
	t0 := c.now()
	r := s.arena.NewRegion()
	c.done(cNewRegion, t0, nil)

	// 2. Build the response under an uncontended Acquire.
	t0 = c.now()
	o, err := r.TryAcquire()
	c.done(cAcquire, t0, err)
	if err != nil {
		c.oops(cAcquire, err)
		return false
	}
	t0 = c.now()
	hdr, err := rcgo.TryAllocOwned[reqHdr](o)
	c.done(cAllocOwned, t0, err)
	if err != nil {
		c.oops(cAllocOwned, err)
		return false
	}
	hdr.Value.id = id
	var prev *rcgo.Obj[resp]
	for i := 0; i < p.resps; i++ {
		t0 = c.now()
		x, err := rcgo.TryAllocOwned[resp](o)
		c.done(cAllocOwned, t0, err)
		if err != nil {
			c.oops(cAllocOwned, err)
			return false
		}
		x.Value.n = int64(i)
		t0 = c.now()
		err = rcgo.SetTradOwned(o, x, &x.Value.conf, s.conf)
		c.done(cSetTradOwned, t0, err)
		if err != nil {
			c.oops(cSetTradOwned, err)
		}
		t0 = c.now()
		if prev == nil {
			err = rcgo.SetSameOwned(o, hdr, &hdr.Value.first, x)
		} else {
			err = rcgo.SetSameOwned(o, prev, &prev.Value.next, x)
		}
		c.done(cSetSameOwned, t0, err)
		if err != nil {
			c.oops(cSetSameOwned, err)
		}
		prev = x
	}
	t0 = c.now()
	err = o.Release()
	c.done(cRelease, t0, err)
	if err != nil {
		c.oops(cRelease, err)
		return false
	}

	// 3. Slab-backed body buffers, filled and checksummed.
	c.bodyBuf, c.sums = c.bodyBuf[:0], c.sums[:0]
	for i := 0; i < p.bodies; i++ {
		t0 = c.now()
		b, err := rcgo.TryAlloc[body](r)
		c.done(cSlabAlloc, t0, err)
		if err != nil {
			c.oops(cSlabAlloc, err)
			continue
		}
		c.bodyBuf = append(c.bodyBuf, b)
		c.sums = append(c.sums, fillBody(&b.Value, p.fill+uint64(i)))
	}

	// 4. One counted store into the cache epoch; losing the race to a
	// rotation is a miss, never a failure.
	ent := s.lookup()
	t0 = c.now()
	err = rcgo.SetRef(hdr, &hdr.Value.cache, ent)
	c.done(cSetRef, t0, err)
	switch {
	case err == nil:
		if hdr.Value.cache.Get().Use().payload[0] != epochMagic {
			c.oops(cSetRef, errors.New("cache entry payload corrupted"))
		}
		c.cached++
	case errors.Is(err, rcgo.ErrRegionDeleted):
		c.uncached++
	default:
		c.oops(cSetRef, err)
	}
	if id%rotateEvery == rotateEvery-1 {
		c.rotate()
	}

	// 5. Two subrequests in subregions, with the request pinned across
	// them as a live local would be.
	t0 = c.now()
	unpin, err := rcgo.TryPin(hdr)
	c.done(cPin, t0, err)
	if err != nil {
		c.oops(cPin, err)
		return false
	}
	for k := 0; k < 2; k++ {
		c.subrequest(r, hdr, k)
	}
	unpin()

	// 6. About 1 in 4 requests append to a shared session.
	if p.session >= 0 && !c.appendSession(&s.sess[p.session], id) {
		ok = false
	}

	// 7. Verify the bodies and delete the region.
	for i, b := range c.bodyBuf {
		if sumBody(&b.Value) == c.sums[i] {
			c.bodiesOK++
		} else {
			c.bodiesBad++
		}
	}
	clear(c.bodyBuf)
	t0 = c.now()
	err = r.Delete()
	c.done(cDelete, t0, err)
	if err != nil {
		c.oops(cDelete, err)
		return false
	}
	return ok
}

func (c *client) subrequest(r *rcgo.Region, hdr *rcgo.Obj[reqHdr], k int) {
	if c.tr != nil {
		c.tr.begin(sSubrequest)
		defer c.tr.end()
	}
	t0 := c.now()
	sub, err := r.TryNewSubregion()
	c.done(cNewSubregion, t0, err)
	if err != nil {
		c.oops(cNewSubregion, err)
		return
	}
	t0 = c.now()
	sr, err := rcgo.TryAlloc[subReq](sub)
	c.done(cAlloc, t0, err)
	if err != nil {
		c.oops(cAlloc, err)
	} else {
		sr.Value.n = int64(k)
		t0 = c.now()
		err = rcgo.SetParent(sr, &sr.Value.up, hdr)
		c.done(cSetParent, t0, err)
		if err != nil {
			c.oops(cSetParent, err)
		}
	}
	t0 = c.now()
	err = sub.Delete()
	c.done(cDelete, t0, err)
	if err != nil {
		c.oops(cDelete, err)
	}
}

// rotate starts a new cache epoch and defer-deletes the old one, which
// reclaims once the last request holding it is deleted.
func (c *client) rotate() {
	s := c.s
	t0 := c.now()
	nr := s.arena.NewRegion()
	c.done(cNewRegion, t0, nil)
	t0 = c.now()
	e, err := rcgo.TryAlloc[cacheEntry](nr)
	c.done(cAlloc, t0, err)
	if err != nil {
		c.oops(cAlloc, err)
		return
	}
	s.mu.Lock()
	s.epochs++
	e.Value.tag = "epoch"
	e.Value.payload = [2]uint64{epochMagic, s.epochs}
	old := s.epoch
	s.epoch, s.entry = nr, e
	s.mu.Unlock()
	t0 = c.now()
	old.DeleteDeferred()
	c.done(cDeleteDeferred, t0, nil)
}

// appendSession appends one entry to a shared session region under
// AcquireContext with a deadline, recycling the region when it is full.
// A region recycled under a waiting caller fails its wait with
// ErrRegionDeleted; the caller retries on the new region.
func (c *client) appendSession(ss *session, id int64) bool {
	if c.tr != nil {
		c.tr.begin(sSession)
		defer c.tr.end()
	}
	ctx, cancel := context.WithTimeout(context.Background(), sessionDeadline)
	defer cancel()
	for {
		r := ss.r.Load()
		t0 := c.now()
		o, err := r.AcquireContext(ctx)
		c.done(cAcquireCtx, t0, err)
		if errors.Is(err, rcgo.ErrRegionDeleted) {
			continue
		}
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				c.oops(cAcquireCtx, err)
			}
			return false
		}
		t0 = c.now()
		e, err := rcgo.TryAllocOwned[sessEntry](o)
		c.done(cAllocOwned, t0, err)
		if err == nil {
			e.Value.req = id
			t0 = c.now()
			err = rcgo.SetSameOwned(o, e, &e.Value.next, ss.head)
			c.done(cSetSameOwned, t0, err)
			ss.head = e
			ss.n++
		}
		if err != nil {
			c.oops(cAllocOwned, err)
		}
		if ss.n < c.s.traffic.sessionCap {
			t0 = c.now()
			err = o.Release()
			c.done(cRelease, t0, err)
		} else {
			t0 = c.now()
			nr := c.s.arena.NewRegion()
			c.done(cNewRegion, t0, nil)
			ss.head, ss.n = nil, 0
			ss.r.Store(nr)
			t0 = c.now()
			err = o.Delete()
			c.done(cOwnerDelete, t0, err)
		}
		if err != nil {
			c.oops(cRelease, err)
			return false
		}
		return true
	}
}

// window is one windowLen of a phase's closed loop. A phase is a row of
// windows: with every client idle, one calibration chunk measures the
// machine's speed; then every client serves until the window's end, and
// the phase waits for their requests in flight. The window's rates are
// its calls and requests per reference second of the process CPU time
// the serving took, and its requests' latencies are in reference time,
// both with the window's own speed factor. The end-to-end service rates
// are medians over the windows quiet selects, and the latency quantiles
// come from those windows' merged histogram.
type window struct {
	reqs, calls int64
	lat         hist    // request latency, reference ns
	speed       speed   // the window's calibration chunk
	cpuS        float64 // process CPU seconds, serving only
	stealS      float64 // machine steal seconds, serving only
	rssMiB      float64 // peak RSS
}

const windowLen = 250 * time.Millisecond

// perRefS is the window's rate of n per reference second.
func (w *window) perRefS(n int64) float64 {
	return float64(n) / (w.cpuS * w.speed.factor())
}

// servicePhase is one measured (or traced) stretch of the closed loop.
type servicePhase struct {
	clients          []*client
	calls, fails     [numCalls]int64
	requests, failed int64
	lat              hist // request latency, reference ns
	win              []window
	elapsed          time.Duration
	cpuNs, stealNs   int64 // process CPU and machine steal, serving only
	speed            speed // all calibration chunks of the phase
	gc               gcSnap
	rssMiB           float64
	counters         rcgo.ArenaCounters // deltas over the phase
	ringEvents       uint64
	ringDropped      uint64
	tracer           *tracer
}

// runPhase runs workers closed-loop clients for d, in whole windows.
// With traced set, every request is traced.
func (s *server) runPhase(d time.Duration, workers int, traced bool) *servicePhase {
	ph := &servicePhase{}
	runtime.GC()
	c0 := s.arena.Counters()
	ev0, dr0 := s.ring.Total(), s.ring.Dropped()
	g0 := readGC()
	var base int64
	if traced {
		base = ticks()
	}
	for i := 0; i < workers; i++ {
		c := &client{s: s}
		if traced {
			c.tr = newTracer(base)
		}
		ph.clients = append(ph.clients, c)
	}
	start := time.Now()
	smp := startSampler()
	for deadline := start.Add(d); time.Until(deadline) >= windowLen; {
		w := window{speed: s.cal.measure(1)}
		f := w.speed.factor()
		cpu0 := readCPU()
		end := time.Now().Add(windowLen)
		var wg sync.WaitGroup
		for _, c := range ph.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.serve(end, f)
			}()
		}
		wg.Wait()
		cpu1 := readCPU()
		w.cpuS, w.stealS = float64(cpu1.procNs-cpu0.procNs)/1e9, float64(cpu1.stealNs-cpu0.stealNs)/1e9
		w.rssMiB = smp.mark()
		for _, c := range ph.clients {
			w.reqs += c.cur.reqs
			w.calls += c.cur.calls
			w.lat.merge(&c.cur.lat)
			c.cur = window{}
		}
		ph.cpuNs += cpu1.procNs - cpu0.procNs
		ph.stealNs += cpu1.stealNs - cpu0.stealNs
		ph.speed.add(w.speed)
		ph.win = append(ph.win, w)
	}
	ph.elapsed = time.Since(start)
	ph.rssMiB = smp.finish()
	ph.gc = readGC().sub(g0)
	c1 := s.arena.Counters()
	ph.counters = subCounters(c1, c0)
	ph.ringEvents, ph.ringDropped = s.ring.Total()-ev0, s.ring.Dropped()-dr0
	if traced {
		ph.tracer = newTracer(base)
	}
	for _, c := range ph.clients {
		for k := range c.calls {
			ph.calls[k] += c.calls[k]
			ph.fails[k] += c.fails[k]
		}
		ph.requests += c.requests
		ph.failed += c.failedReqs
		ph.lat.merge(&c.lat)
		if traced {
			ph.tracer.merge(c.tr)
		}
	}
	return ph
}

// serve runs the client's closed loop until the deadline, stating each
// request's latency in reference time with speed factor f.
func (c *client) serve(deadline time.Time, f float64) {
	for t := time.Now(); t.Before(deadline); {
		id := c.s.next.Add(1) - 1
		calls := sumCalls(c.calls)
		ok := c.request(id)
		end := time.Now()
		ns := int64(float64(end.Sub(t).Nanoseconds()) * f)
		c.lat.add(ns)
		c.cur.reqs++
		c.cur.calls += sumCalls(c.calls) - calls
		c.cur.lat.add(ns)
		c.requests++
		if !ok {
			c.failedReqs++
		}
		t = end
	}
}

// quiet returns the whole windows the service's end-to-end figures
// come from, and the rule that chose them. Request latency tracks
// machine steal window by window (a request in flight when the
// hypervisor takes its vCPU waits for the host, not for the runtime),
// so where steal varies it is the quarter (rounded up) of the windows
// with the least; ties go in bit-reversed index order, which takes tied
// windows evenly from across the phase. Where every window saw the same
// steal (none, or no /proc/stat to read it from), it is all of them.
func (ph *servicePhase) quiet() ([]*window, string) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, w := range ph.win {
		lo, hi = min(lo, w.stealS), max(hi, w.stealS)
	}
	var out []*window
	if lo == hi {
		for i := range ph.win {
			out = append(out, &ph.win[i])
		}
		return out, fmt.Sprintf("all %d whole windows (steal did not vary)", len(out))
	}
	idx := make([]int, len(ph.win))
	for i := range idx {
		idx[i] = i
	}
	shift := 64 - bits.Len(uint(len(idx)))
	spread := func(i int) uint64 { return bits.Reverse64(uint64(i)) >> shift }
	sort.Slice(idx, func(a, b int) bool {
		wa, wb := ph.win[idx[a]].stealS, ph.win[idx[b]].stealS
		if wa != wb {
			return wa < wb
		}
		return spread(idx[a]) < spread(idx[b])
	})
	for _, i := range idx[:(len(idx)+3)/4] {
		out = append(out, &ph.win[i])
	}
	return out, fmt.Sprintf("the %d of %d whole windows with the least steal (%.3f-%.3f s; all windows %.3f-%.3f s)",
		len(out), len(ph.win), out[0].stealS, out[len(out)-1].stealS, lo, hi)
}

// medianOver is the median of f over ws.
func medianOver(ws []*window, f func(w *window) float64) float64 {
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = f(w)
	}
	return median(xs)
}

func subCounters(a, b rcgo.ArenaCounters) rcgo.ArenaCounters {
	return rcgo.ArenaCounters{
		Allocs: a.Allocs - b.Allocs, CountedStores: a.CountedStores - b.CountedStores,
		RCIncrements: a.RCIncrements - b.RCIncrements, RCDecrements: a.RCDecrements - b.RCDecrements,
		SameChecks: a.SameChecks - b.SameChecks, TradChecks: a.TradChecks - b.TradChecks,
		ParentChecks: a.ParentChecks - b.ParentChecks, CheckFailures: a.CheckFailures - b.CheckFailures,
		Deletes: a.Deletes - b.Deletes, DeletesBlocked: a.DeletesBlocked - b.DeletesBlocked,
		DeferredDeletes: a.DeferredDeletes - b.DeferredDeletes, Reclaims: a.Reclaims - b.Reclaims,
		PinOps: a.PinOps - b.PinOps, AllocFlushes: a.AllocFlushes - b.AllocFlushes,
		Acquires: a.Acquires - b.Acquires, Releases: a.Releases - b.Releases,
		OwnerFlushes: a.OwnerFlushes - b.OwnerFlushes, AcquireWaits: a.AcquireWaits - b.AcquireWaits,
		AcquireTimeouts: a.AcquireTimeouts - b.AcquireTimeouts, AcquireCancels: a.AcquireCancels - b.AcquireCancels,
		AcquireWaitNanos: a.AcquireWaitNanos - b.AcquireWaitNanos, OwnerRevocations: a.OwnerRevocations - b.OwnerRevocations,
		SlabRefills: a.SlabRefills - b.SlabRefills, SlabReleases: a.SlabReleases - b.SlabReleases,
	}
}

// reconcile checks that the calls the clients issued in a phase match
// the arena's own counters over it exactly, so a traced and an untraced
// phase are known to issue calls the same way.
func (ph *servicePhase) reconcile(res *result, what string) {
	ok := func(k spanName) int64 { return ph.calls[k] - ph.fails[k] }
	c := ph.counters
	for _, r := range []struct {
		what          string
		issued, arena int64
	}{
		{"allocs", ok(cAlloc) + ok(cSlabAlloc) + ok(cAllocOwned), c.Allocs},
		{"counted stores", ok(cSetRef), c.CountedStores},
		{"sameregion checks", ph.calls[cSetSameOwned], c.SameChecks},
		{"traditional checks", ph.calls[cSetTradOwned], c.TradChecks},
		{"parentptr checks", ph.calls[cSetParent], c.ParentChecks},
		{"pins", ok(cPin), c.PinOps},
		{"deferred deletes", ph.calls[cDeleteDeferred], c.DeferredDeletes},
		{"deletes", ok(cDelete) + ok(cOwnerDelete), c.Deletes},
	} {
		res.check(r.issued == r.arena, "%s: clients issued %d %s, arena counted %d", what, r.issued, r.what, r.arena)
	}
	// A hand-off that lands just as a deadline expires is accounted by
	// the runtime as an acquire and a release the caller never saw.
	acq := ok(cAcquire) + ok(cAcquireCtx)
	rel := ok(cRelease) + ok(cOwnerDelete)
	extra := c.Acquires - acq
	res.check(extra >= 0 && c.Releases-rel == extra && extra <= c.AcquireTimeouts+c.AcquireCancels,
		"%s: clients acquired %d and released %d, arena counted %d and %d", what, acq, rel, c.Acquires, c.Releases)
	res.check(c.CheckFailures == 0, "%s: %d annotation check failures", what, c.CheckFailures)
}

func (ph *servicePhase) check(res *result, what string) {
	var cached, uncached, okB, badB, unexpected int64
	var first error
	for _, c := range ph.clients {
		cached += c.cached
		uncached += c.uncached
		okB += c.bodiesOK
		badB += c.bodiesBad
		unexpected += c.unexpected
		if first == nil {
			first = c.firstErr
		}
	}
	res.check(cached+uncached == ph.requests, "%s: %d cached + %d uncached != %d served", what, cached, uncached, ph.requests)
	res.check(badB == 0, "%s: %d of %d body checksums failed", what, badB, okB+badB)
	res.check(unexpected == 0, "%s: %d unexpected errors, first: %v", what, unexpected, first)
	ph.reconcile(res, what)
	res.info("%s: %d requests (%d cached, %d uncached), %d bodies verified, %d failed requests", what, ph.requests, cached, uncached, okB, ph.failed)
}

func runService(cfg config) (*result, error) {
	res := newResult()
	workers := runtime.NumCPU()
	nSetup := setups
	if cfg.trace {
		nSetup = 1
	}
	var s *server
	var setupS, setupCPU, setupWall []float64
	cal := newCalibrator()
	for i := 0; i < nSetup; i++ {
		if s != nil {
			if err := s.shutdown(); err != nil {
				return nil, err
			}
			if err := s.arena.CloseBackingStore(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		sp := cal.measure(calibChunks / 2)
		t0, c0 := time.Now(), readCPU()
		t, err := measureTraffic()
		if err != nil {
			return nil, err
		}
		s = newServer(cfg.seed, t)
		// Warm the slab store, chunk pools and the epoch before timing.
		w := &client{s: s}
		for j := 0; j < warmupRequests; j++ {
			w.request(s.next.Add(1) - 1)
		}
		setupWall = append(setupWall, time.Since(t0).Seconds())
		cpu := float64(readCPU().procNs-c0.procNs) / 1e9
		sp.add(cal.measure(calibChunks - calibChunks/2))
		setupCPU = append(setupCPU, cpu)
		setupS = append(setupS, cpu*sp.factor())
		if w.unexpected > 0 {
			return nil, fmt.Errorf("warm-up: %w", w.firstErr)
		}
	}
	s.cal = cal
	runtime.GC()
	debug.FreeOSMemory()

	measure := cfg.duration
	if cfg.trace {
		measure /= 2
	}
	ph := s.runPhase(measure, workers, false)
	var traced *servicePhase
	var clk *clock
	if cfg.trace {
		clk = newClock()
		traced = s.runPhase(measure, workers, true)
	}
	slabs, _ := s.arena.SlabStats()
	if err := s.shutdown(); err != nil {
		return nil, err
	}
	ph.check(res, "untraced phase")
	res.attempted, res.failed = ph.requests, ph.failed
	if traced != nil {
		traced.check(res, "traced phase")
		res.attempted += traced.requests
		res.failed += traced.failed
	}
	checkArena(res, "service arena", s.arena, s.arena.Traditional().Objects() == 1)
	if err := s.arena.CloseBackingStore(); err != nil {
		return nil, err
	}
	res.info("untraced phase: %.2fs wall, %.2fs process CPU, %.2fs machine steal; %.0f requests per CPU-second",
		ph.elapsed.Seconds(), float64(ph.cpuNs)/1e9, float64(ph.stealNs)/1e9, float64(ph.requests)/(float64(ph.cpuNs)/1e9))
	res.info("machine speed: factor %.4f over the phase, %d calibration steps in %.3f s", ph.speed.factor(), ph.speed.steps, float64(ph.speed.ns)/1e9)
	t := s.traffic
	res.info("traffic from apache on the VM (qs): %d regions, %d subrequests, %d requests on %d connections, %.2f headers per region -> small response %d-%d objects, large %d-%d; session recycled after %d appends",
		t.regions, t.subrequests, t.requests(), t.conns, t.headers(), t.respLo, t.respHi, largeFactor*t.respLo, largeFactor*(t.respHi+1)-1, t.sessionCap)
	res.info("%d clients, %d cache epochs, latency samples %d in %d whole windows of %v; whole-phase p50 %.3f us, p99 %.3f us",
		workers, s.epochs, ph.lat.n, len(ph.win), windowLen, float64(ph.lat.quantile(0.5))/1e3, float64(ph.lat.quantile(0.99))/1e3)

	calls := float64(sumCalls(ph.calls))
	reqs := float64(ph.requests)
	if !cfg.trace {
		sec := windowLen.Seconds()
		quiet, rule := ph.quiet()
		if len(quiet) == 0 {
			return nil, fmt.Errorf("service: the %v phase completed no whole %v window", measure, windowLen)
		}
		var lat hist
		for _, w := range quiet {
			lat.merge(&w.lat)
		}
		res.add("ops_per_ref_s", medianOver(quiet, func(w *window) float64 { return w.perRefS(w.calls) }), "1/ref-s")
		res.add("req_per_ref_s", medianOver(quiet, func(w *window) float64 { return w.perRefS(w.reqs) }), "1/ref-s")
		res.add("req_p50_ref_us", float64(lat.quantile(0.50))/1e3, "ref-us")
		res.add("req_p99_ref_us", float64(lat.quantile(0.99))/1e3, "ref-us")
		res.info("windows: %s", rule)
		res.info("peak RSS: per window %.2f-%.2f MiB, over the phase %.2f MiB", minF(rssOf(ph.win)), maxF(rssOf(ph.win)), ph.rssMiB)
		res.info("latency: %d samples in those windows; all windows p50 %.3f ref-us, p99 %.3f ref-us",
			lat.n, float64(ph.lat.quantile(0.5))/1e3, float64(ph.lat.quantile(0.99))/1e3)
		res.add("gc_alloc_bytes_per_op", float64(ph.gc.allocBytes)/reqs, "B/op")
		// A window holds many full cycles of the service (cache epochs,
		// sessions, collections), so a peak they reach in every window
		// shows in the median of the window peaks; a spike of one
		// window, which the collector's timing makes, does not.
		res.add("rss_peak_mib", medianOver(quiet, func(w *window) float64 { return w.rssMiB }), "MiB")
		res.add("setup_s", median(setupS), "s")
		res.info("fail_ratio = %d/%d = %g (failed requests / attempted requests)", res.failed, res.attempted, ratio(float64(res.failed), float64(res.attempted)))
		res.info("CPU time: ops_per_cpu_s %.6g, req_per_cpu_s %.6g (median over the selected windows)",
			medianOver(quiet, func(w *window) float64 { return float64(w.calls) / w.cpuS }), medianOver(quiet, func(w *window) float64 { return float64(w.reqs) / w.cpuS }))
		res.info("wall clock: ops_per_s %.6g 1/s, req_per_s %.6g 1/s (median over the selected windows)",
			medianOver(quiet, func(w *window) float64 { return float64(w.calls) / sec }), medianOver(quiet, func(w *window) float64 { return float64(w.reqs) / sec }))
		res.info("setup reference %.4v s, CPU %.4v s, wall %.4v s", setupS, setupCPU, setupWall)
		return res, nil
	}

	tr := traced.tracer
	unitsT := float64(traced.requests)
	for k := spanName(0); k < numCalls; k++ {
		addCall(res, k, float64(traced.calls[k])/unitsT, float64(traced.fails[k])/unitsT, &tr.calls[k], clk)
	}
	res.add("units", unitsT, "count")
	res.add("calls", calls, "count")
	c := ph.counters
	res.add("alloccache.allocs", float64(c.Allocs), "count")
	res.add("alloccache.alloc_flushes", float64(c.AllocFlushes), "count")
	res.add("alloccache.objs_per_flush", ratio(float64(c.Allocs), float64(c.AllocFlushes)), "objs/flush")
	counted := float64(traced.calls[cSetRef] - traced.fails[cSetRef])
	res.add("store.set_ref.counted", counted/unitsT, "calls/unit")
	res.add("store.set_ref.counted_ratio", ratio(counted, float64(traced.calls[cSetRef])), "ratio")
	addOwnerWaits(res, float64(c.AcquireWaits), float64(ph.calls[cAcquireCtx]), float64(c.AcquireWaitNanos))
	addSlab(res, float64(c.SlabRefills), reqs, float64(slabs.MappedBytes))
	addGC(res, ph.gc, calls)
	addRingTrace(res, float64(ph.ringEvents), float64(ph.ringDropped), reqs)
	res.add("pipeline.compile_ms", float64(s.traffic.compileNs)/1e6, "ms")
	res.add("pipeline.vm_run_ms", float64(s.traffic.runNs)/1e6, "ms")
	for _, name := range programNames {
		res.add("replay."+name+".ns_per_op", 0, "ref-ns")
	}
	res.add("service.request.self_ns_p50", clk.ns(tr.unitBench.quantile(0.5)), "ns")
	addTraceSummary(res, tr, clk, reqs/(float64(ph.cpuNs)*ph.speed.factor()/1e9), unitsT/(float64(traced.cpuNs)*traced.speed.factor()/1e9), traced.elapsed, workers)
	if err := writeSpans(spanPath(cfg), clk, tr.kept); err != nil {
		return nil, err
	}
	return res, nil
}

func rssOf(ws []window) []float64 {
	out := make([]float64, len(ws))
	for i := range ws {
		out[i] = ws[i].rssMiB
	}
	return out
}
