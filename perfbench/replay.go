package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"rcgo"
	"rcgo/internal/workloads"
)

// node is the replay's one object shape: two counted slots, one slot
// per annotated flavour, and a word of payload.
type node struct {
	ref  [2]rcgo.Ref[node]
	same rcgo.Ref[node]
	trad rcgo.Ref[node]
	par  rcgo.Ref[node]
	val  int64
}

var programNames = func() []string {
	var out []string
	for _, w := range workloads.All() {
		out = append(out, w.Name)
	}
	return out
}()

// replayer executes plans against one arena.
type replayer struct {
	arena   *rcgo.Arena
	globals []*rcgo.Obj[node]
	plans   []programPlan
	base    []*rcgo.Obj[node]
	objs    []*rcgo.Obj[node]
	tr      *tracer

	cal     *calibrator
	calls   [numCalls]int64 // issued calls
	fails   [numCalls]int64 // calls that returned an error
	cross   int64           // issued counted stores whose target is in another region
	passLat []int64         // this pass's sampled epoch lifetimes, thread CPU ns
	err     error           // first failure
}

func newReplayer(plans []programPlan, opts ...rcgo.Option) *replayer {
	a := rcgo.NewArena(opts...)
	rp := &replayer{arena: a, plans: plans}
	for i := 0; i < tradGlobals; i++ {
		rp.globals = append(rp.globals, rcgo.Alloc[node](a.Traditional()))
	}
	maxObjs := 0
	for _, p := range plans {
		maxObjs = max(maxObjs, p.maxObjs)
	}
	rp.objs = make([]*rcgo.Obj[node], 0, maxObjs)
	return rp
}

func (rp *replayer) fail(name spanName, err error) {
	rp.fails[name]++
	if rp.err == nil {
		rp.err = fmt.Errorf("%v: %w", name, err)
	}
}

// program replays plan i once; pass numbers the spans' shared id.
func (rp *replayer) program(i int, pass int) error {
	p := &rp.plans[i]
	tr := rp.tr
	var t0 int64
	if tr != nil {
		tr.unit = uint64(pass)<<4 | uint64(i)
		tr.begin(sProgram + spanName(i))
		t0 = ticks()
	}
	b := rp.arena.NewRegion()
	rp.calls[cNewRegion]++
	if tr != nil {
		tr.call(cNewRegion, t0)
	}
	for j := 0; j < p.baseAlloc; j++ {
		if tr != nil {
			t0 = ticks()
		}
		o, err := rcgo.TryAlloc[node](b)
		if tr != nil {
			tr.call(cAlloc, t0)
		}
		rp.calls[cAlloc]++
		if err != nil {
			rp.fail(cAlloc, err)
			return rp.err
		}
		rp.base = append(rp.base, o)
	}
	ops := p.ops
	for j := range p.epochs {
		e := &p.epochs[j]
		n := e.len()
		if err := rp.epoch(b, e, ops[:n], (j+pass)%latencyEvery == 0); err != nil {
			return err
		}
		ops = ops[n:]
	}
	if tr != nil {
		t0 = ticks()
	}
	err := b.Delete()
	if tr != nil {
		tr.call(cDelete, t0)
		tr.end()
	}
	rp.calls[cDelete]++
	clear(rp.base)
	rp.base = rp.base[:0]
	if err != nil {
		rp.fail(cDelete, err)
	}
	return rp.err
}

// calibChunks is the calibration per replay pass; with the untimed
// warm-up chunks it takes about 4% of a phase.
const calibChunks = 8

// latencyEvery samples one epoch in this many for the latency
// histogram. A thread CPU clock read is a system call of about 450 ns
// on a 2-vCPU KVM guest; reading it around every epoch would add about
// 8% to a pass. The sampled epochs shift by one each pass, so every
// latencyEvery passes time every epoch once: a fixed stride would time
// a seed-dependent subset of a program's few large epochs.
const latencyEvery = 16

// epoch creates one epoch region, runs ops in it and deletes it. With
// timed set, its thread CPU time is a latency sample.
func (rp *replayer) epoch(b *rcgo.Region, e *epochPlan, ops []op, timed bool) error {
	tr := rp.tr
	if timed {
		start := threadCPU()
		defer func() { rp.passLat = append(rp.passLat, threadCPU()-start) }()
	}
	var t0 int64
	if tr != nil {
		tr.begin(sEpoch)
		t0 = ticks()
	}
	var r *rcgo.Region
	if e.sub {
		var err error
		r, err = b.TryNewSubregion()
		if tr != nil {
			tr.call(cNewSubregion, t0)
		}
		rp.calls[cNewSubregion]++
		if err != nil {
			rp.fail(cNewSubregion, err)
			return rp.err
		}
	} else {
		r = rp.arena.NewRegion()
		if tr != nil {
			tr.call(cNewRegion, t0)
		}
		rp.calls[cNewRegion]++
	}
	objs, base := rp.objs[:0], rp.base
	for _, o := range ops {
		if tr != nil {
			t0 = ticks()
		}
		var err error
		var name spanName
		switch o.kind() {
		case kAlloc:
			name = cAlloc
			var x *rcgo.Obj[node]
			if x, err = rcgo.TryAlloc[node](r); err == nil {
				objs = append(objs, x)
			}
		case kRefCross:
			name = cSetRef
			h := objs[o.holder()]
			err = rcgo.SetRef(h, &h.Value.ref[o.slot()], base[o.target()])
			rp.cross++
		case kRefLocal:
			name = cSetRef
			h := objs[o.holder()]
			err = rcgo.SetRef(h, &h.Value.ref[o.slot()], objs[o.target()])
		case kSame:
			name = cSetSame
			h := objs[o.holder()]
			err = rcgo.SetSame(h, &h.Value.same, objs[o.target()])
		case kTrad:
			name = cSetTrad
			h := objs[o.holder()]
			err = rcgo.SetTrad(h, &h.Value.trad, rp.globals[o.target()])
		case kParent:
			name = cSetParent
			h := objs[o.holder()]
			t := objs
			if e.sub {
				t = base
			}
			err = rcgo.SetParent(h, &h.Value.par, t[o.target()])
		case kPin:
			name = cPin
			var unpin func()
			if unpin, err = rcgo.TryPin(base[o.target()]); err == nil {
				unpin()
			}
		}
		if tr != nil {
			tr.call(name, t0)
		}
		rp.calls[name]++
		if err != nil {
			rp.fail(name, err)
			return rp.err
		}
	}
	if tr != nil {
		t0 = ticks()
	}
	err := r.Delete()
	if tr != nil {
		tr.call(cDelete, t0)
		tr.end()
	}
	rp.calls[cDelete]++
	clear(objs)
	rp.objs = objs[:0]
	if err != nil {
		rp.fail(cDelete, err)
	}
	return rp.err
}

// replaySetup is everything a replay run derives before it measures.
type replaySetup struct {
	mixes     []programMix
	plans     []programPlan
	compileNs int64
	vmRunNs   int64
	release   func() // unmaps the plans' op streams
}

func setupReplay(mode rcgo.Mode, seed uint64) (*replaySetup, error) {
	mixes, err := deriveMixes(mode)
	if err != nil {
		return nil, err
	}
	s := &replaySetup{mixes: mixes, release: func() {}}
	for _, m := range mixes {
		s.plans = append(s.plans, buildPlan(m, seed))
		s.compileNs += m.CompileNs
		s.vmRunNs += m.RunNs
	}
	err = generate(s.plans, func(n int) []op {
		ops, release := mapOps(n)
		s.release = release
		return ops
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// perPass is the number of calls of each kind one pass must issue.
func (s *replaySetup) perPass() (calls [numCalls]int64, cross int64) {
	for _, m := range s.mixes {
		calls[cAlloc] += m.Allocs
		calls[cSetRef] += m.SetRef
		calls[cSetSame] += m.Same
		calls[cSetTrad] += m.Trad
		calls[cSetParent] += m.Parent
		calls[cPin] += m.Pins
		calls[cDelete] += m.Created
		cross += m.Cross
	}
	// Region creations split between NewRegion and NewSubregion by seed.
	for _, p := range s.plans {
		calls[cNewRegion]++
		for _, e := range p.epochs {
			if e.sub {
				calls[cNewSubregion]++
			} else {
				calls[cNewRegion]++
			}
		}
	}
	return calls, cross
}

// replayPhase is one measured (or traced) stretch of whole passes.
// Half of calibChunks run just before each pass and half just after;
// the pass's speed factor comes from them, and the pass's times and
// latency samples are stated in reference time with it.
type replayPhase struct {
	passes  int
	passNs  []int64   // wall time per pass, programs only
	passCPU []int64   // process CPU time per pass, programs only
	progCPU [][]int64 // process CPU time, [program][pass]
	factor  []float64 // speed factor per pass
	speed   speed     // all calibration chunks of the phase
	calls   [numCalls]int64
	fails   [numCalls]int64
	cross   int64
	lat     hist // sampled epoch latencies, reference ns
	rawLat  hist // the same, thread CPU ns
	gc      gcSnap
	rssMiB  float64   // peak RSS over the phase
	passRSS []float64 // peak RSS per pass
	tracer  *tracer
	elapsed time.Duration
}

// refRate is the median over passes of units per reference second.
func (ph *replayPhase) refRate(units int64) float64 {
	rates := make([]float64, ph.passes)
	for i, ns := range ph.passCPU {
		rates[i] = float64(units) / (float64(ns) * ph.factor[i] / 1e9)
	}
	return median(rates)
}

// runPhase replays whole passes until d has elapsed.
func (rp *replayer) runPhase(d time.Duration, tr *tracer) (*replayPhase, error) {
	rp.calls, rp.fails, rp.cross, rp.tr = [numCalls]int64{}, [numCalls]int64{}, 0, tr
	n := len(rp.plans)
	ph := &replayPhase{progCPU: make([][]int64, n), tracer: tr}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	runtime.GC()
	g0 := readGC()
	start := time.Now()
	rss := startSampler()
	for pass := 0; ; pass++ {
		var wall, cpu int64
		var sp speed
		rp.passLat = rp.passLat[:0]
		sp.add(rp.cal.measure(calibChunks / 2))
		if tr != nil {
			tr.unit = uint64(pass)<<4 | 0xF
			tr.begin(sPass)
		}
		for i := range rp.plans {
			w, c := time.Now(), procCPU()
			if err := rp.program(i, pass); err != nil {
				rss.finish()
				return nil, fmt.Errorf("replay %s pass %d: %w", rp.plans[i].mix.Name, pass, err)
			}
			c = procCPU() - c
			wall += time.Since(w).Nanoseconds()
			cpu += c
			ph.progCPU[i] = append(ph.progCPU[i], c)
		}
		if tr != nil {
			tr.end()
		}
		sp.add(rp.cal.measure(calibChunks - calibChunks/2))
		f := sp.factor()
		for _, ns := range rp.passLat {
			ph.rawLat.add(ns)
			ph.lat.add(int64(float64(ns) * f))
		}
		ph.speed.add(sp)
		ph.factor = append(ph.factor, f)
		ph.passNs = append(ph.passNs, wall)
		ph.passCPU = append(ph.passCPU, cpu)
		ph.passRSS = append(ph.passRSS, rss.mark())
		ph.passes++
		if time.Since(start) >= d {
			break
		}
	}
	ph.elapsed = time.Since(start)
	ph.rssMiB = rss.finish()
	ph.gc = readGC().sub(g0)
	ph.calls, ph.fails, ph.cross = rp.calls, rp.fails, rp.cross
	rp.tr = nil
	return ph, nil
}

// perSec is the median over passes of units per second of the per-pass
// times.
func perSec(units int64, times []int64) float64 {
	rates := make([]float64, len(times))
	for i, ns := range times {
		rates[i] = float64(units) / (float64(ns) / 1e9)
	}
	return median(rates)
}

// threadCPUCost is the mean cost of one threadCPU read, in ns.
func threadCPUCost() float64 {
	const n = 4096
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		threadCPU()
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

func sumInt64(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

func sumCalls(c [numCalls]int64) int64 {
	var s int64
	for _, v := range c {
		s += v
	}
	return s
}

func runReplay(cfg config, mode rcgo.Mode) (*result, error) {
	res := newResult()
	nSetup := setups
	if cfg.trace {
		nSetup = 1
	}
	var s *replaySetup
	var setupS, setupCPU, setupWall []float64
	var rp *replayer
	cal := newCalibrator()
	for i := 0; i < nSetup; i++ {
		if s != nil {
			s.release()
		}
		runtime.GC()
		sp := cal.measure(calibChunks / 2)
		t0, c0 := time.Now(), readCPU()
		var err error
		if s, err = setupReplay(mode, cfg.seed); err != nil {
			return nil, err
		}
		rp = newReplayer(s.plans)
		setupWall = append(setupWall, time.Since(t0).Seconds())
		cpu := float64(readCPU().procNs-c0.procNs) / 1e9
		sp.add(cal.measure(calibChunks - calibChunks/2))
		setupCPU = append(setupCPU, cpu)
		setupS = append(setupS, cpu*sp.factor())
	}
	rp.cal = cal
	runtime.GC()
	debug.FreeOSMemory()

	want, wantCross := s.perPass()
	perPass := sumCalls(want)
	res.info("pass: %d runtime calls (%d allocs, %d SetRef of which %d counted, %d SetSame, %d SetTrad, %d SetParent, %d pins, %d regions)",
		perPass, want[cAlloc], want[cSetRef], wantCross, want[cSetSame], want[cSetTrad], want[cSetParent], want[cPin], want[cDelete])

	measure := cfg.duration
	if cfg.trace {
		measure /= 2
	}
	ph, err := rp.runPhase(measure, nil)
	if err != nil {
		return nil, err
	}
	var traced *replayPhase
	var clk *clock
	if cfg.trace {
		clk = newClock()
		if traced, err = rp.runPhase(measure, newTracer(ticks())); err != nil {
			return nil, err
		}
	}

	// Every phase must have issued exactly the planned calls per pass.
	for _, p := range []*replayPhase{ph, traced} {
		if p == nil {
			continue
		}
		for k := spanName(0); k < numCalls; k++ {
			res.check(p.calls[k] == want[k]*int64(p.passes),
				"%v: issued %d calls in %d passes, plan says %d per pass", k, p.calls[k], p.passes, want[k])
		}
		res.check(p.cross == wantCross*int64(p.passes), "counted stores: issued %d in %d passes, plan says %d per pass", p.cross, p.passes, wantCross)
	}
	res.attempted = sumCalls(ph.calls)
	res.failed = sumCalls(ph.fails)
	if traced != nil {
		res.attempted += sumCalls(traced.calls)
		res.failed += sumCalls(traced.fails)
	}

	checkArena(res, "timed arena", rp.arena, rp.arena.Traditional().Objects() == tradGlobals)
	diff := differential(res, s)
	res.info("stream digest %016x over %d programs", streamDigest(s.plans), len(s.plans))

	calls := float64(sumCalls(ph.calls))
	if !cfg.trace {
		// A replay's "request" is one epoch region: created, filled,
		// deleted.
		epochs := want[cDelete] - int64(len(s.plans))
		res.add("ops_per_ref_s", ph.refRate(perPass), "1/ref-s")
		res.add("req_per_ref_s", ph.refRate(epochs), "1/ref-s")
		res.add("req_p50_ref_us", float64(ph.lat.quantile(0.50))/1e3, "ref-us")
		res.add("req_p99_ref_us", float64(ph.lat.quantile(0.99))/1e3, "ref-us")
		res.add("gc_alloc_bytes_per_op", float64(ph.gc.allocBytes)/calls, "B/op")
		// A pass runs all eight programs, so a peak every pass reaches
		// shows in the median of the pass peaks; a spike of one pass,
		// which the collector's timing makes, does not.
		res.add("rss_peak_mib", median(ph.passRSS), "MiB")
		res.add("setup_s", median(setupS), "s")
		res.info("fail_ratio = %d/%d = %g (failed calls / attempted calls)", res.failed, res.attempted, ratio(float64(res.failed), float64(res.attempted)))
		res.info("peak RSS: per pass %.2f-%.2f MiB, over the phase %.2f MiB", minF(ph.passRSS), maxF(ph.passRSS), ph.rssMiB)
		res.info("machine speed: factor %.4f over the phase (passes %.4f-%.4f), %d calibration steps in %.3f s",
			ph.speed.factor(), minF(ph.factor), maxF(ph.factor), ph.speed.steps, float64(ph.speed.ns)/1e9)
		res.info("CPU time: ops_per_cpu_s %.6g, req_per_cpu_s %.6g (median over passes); epoch latency p50 %.3f us, p99 %.3f us",
			perSec(perPass, ph.passCPU), perSec(epochs, ph.passCPU), float64(ph.rawLat.quantile(0.50))/1e3, float64(ph.rawLat.quantile(0.99))/1e3)
		res.info("wall clock: ops_per_s %.6g 1/s, req_per_s %.6g 1/s (median over passes)", perSec(perPass, ph.passNs), perSec(epochs, ph.passNs))
		res.info("passes: %d in %.2fs; epoch latency samples %d; setup reference %.4v s, CPU %.4v s, wall %.4v s",
			ph.passes, ph.elapsed.Seconds(), ph.lat.n, setupS, setupCPU, setupWall)
		clockNs := threadCPUCost()
		res.info("latency clock: %d reads per pass at %.0f ns each, %.2f%% of a pass's CPU time",
			2*ph.lat.n/uint64(ph.passes), clockNs, 100*float64(2*ph.lat.n)*clockNs/float64(sumInt64(ph.passCPU)))
		return res, nil
	}

	// Per-layer metrics: counts per pass, call latencies from the traced
	// phase, everything else from the untraced phase.
	tr := traced.tracer
	unitsT := float64(traced.passes)
	for k := spanName(0); k < numCalls; k++ {
		addCall(res, k, float64(traced.calls[k])/unitsT, float64(traced.fails[k])/unitsT, &tr.calls[k], clk)
	}
	res.add("units", float64(traced.passes), "count")
	res.add("calls", calls, "count")
	res.add("alloccache.allocs", float64(diff.Allocs), "count")
	res.add("alloccache.alloc_flushes", float64(diff.AllocFlushes), "count")
	res.add("alloccache.objs_per_flush", ratio(float64(diff.Allocs), float64(diff.AllocFlushes)), "objs/flush")
	res.add("store.set_ref.counted", float64(traced.cross)/unitsT, "calls/unit")
	res.add("store.set_ref.counted_ratio", ratio(float64(traced.cross), float64(traced.calls[cSetRef])), "ratio")
	addOwnerWaits(res, 0, 0, 0)
	addSlab(res, 0, 0, 0)
	addGC(res, ph.gc, calls)
	addRingTrace(res, 0, 0, 0)
	res.add("pipeline.compile_ms", float64(s.compileNs)/1e6, "ms")
	res.add("pipeline.vm_run_ms", float64(s.vmRunNs)/1e6, "ms")
	for i, name := range programNames {
		per := make([]float64, ph.passes)
		for j, ns := range ph.progCPU[i] {
			per[j] = float64(ns) * ph.factor[j] / float64(s.mixes[i].ops())
		}
		res.add("replay."+name+".ns_per_op", median(per), "ref-ns")
	}
	res.add("service.request.self_ns_p50", 0, "ns")
	untracedRate := ph.refRate(perPass)
	tracedRate := traced.refRate(perPass)
	addTraceSummary(res, tr, clk, untracedRate, tracedRate, traced.elapsed, 1)
	if err := writeSpans(spanPath(cfg), clk, tr.kept); err != nil {
		return nil, err
	}
	return res, nil
}

// differential replays each program once on a fresh arena with metrics
// on, and checks the arena's own counters against the VM's counts. It
// returns the counters of the whole differential pass.
func differential(res *result, s *replaySetup) rcgo.ArenaCounters {
	rp := newReplayer(s.plans, rcgo.WithMetrics())
	for i, m := range s.mixes {
		c0, st0 := rp.arena.Counters(), rp.arena.Stats()
		calls0, cross0 := rp.calls, rp.cross
		if err := rp.program(i, 0); err != nil {
			res.check(false, "differential %s: %v", m.Name, err)
			continue
		}
		c, st := rp.arena.Counters(), rp.arena.Stats()
		issued := func(k spanName) int64 { return rp.calls[k] - calls0[k] }
		type row struct {
			what          string
			vm, go_, sent int64
		}
		live := m.Created - m.Deleted
		for _, r := range []row{
			{"allocs", m.Allocs, c.Allocs - c0.Allocs, issued(cAlloc)},
			{"regions created", m.Created, st.RegionsCreated - st0.RegionsCreated, issued(cNewRegion) + issued(cNewSubregion)},
			{"regions deleted (VM deleted + left live at exit)", m.Deleted + live, c.Deletes - c0.Deletes, issued(cDelete)},
			{"SetRef stores", m.SetRef, c.CountedStores - c0.CountedStores, issued(cSetRef)},
			{"SetSame stores", m.Same, c.SameChecks - c0.SameChecks, issued(cSetSame)},
			{"SetTrad stores", m.Trad, c.TradChecks - c0.TradChecks, issued(cSetTrad)},
			{"SetParent stores", m.Parent, c.ParentChecks - c0.ParentChecks, issued(cSetParent)},
			{"rc increments (counted stores + pins)", m.VMIncrements, c.RCIncrements - c0.RCIncrements, rp.cross - cross0 + issued(cPin)},
			{"pins", m.Pins, c.PinOps - c0.PinOps, issued(cPin)},
		} {
			res.check(r.vm == r.go_ && r.vm == r.sent, "differential %s %s: VM %d, replay issued %d, arena counted %d", m.Name, r.what, r.vm, r.sent, r.go_)
		}
	}
	c := rp.arena.Counters()
	res.check(c.CheckFailures == 0, "differential: %d annotation check failures", c.CheckFailures)
	checkArena(res, "differential arena", rp.arena, rp.arena.Traditional().Objects() == tradGlobals)
	return c
}
