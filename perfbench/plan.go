package main

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"sort"
)

// A replay plan turns one program's VM mix into a concrete, seeded op
// stream on the Go-native runtime. The program's regions become one
// base region, created first and deleted last, and Created-1 epoch
// regions, each created, filled and deleted in turn (half of them, by
// seed, as subregions of the base). Every count of the mix is split
// over the epochs exactly, so a pass issues precisely the VM's counts:
//
//	alloc       TryAlloc in the base (before the epochs) or the epoch
//	ref-cross   SetRef from an epoch object to a base object (counted)
//	ref-local   SetRef from an epoch object to an epoch object
//	same        SetSame within the epoch
//	trad        SetTrad to one of the arena's traditional globals
//	parent      SetParent to a base object (subregion epochs) or to an
//	            epoch object (top-level epochs: the region is its own
//	            ancestor)
//	pin         TryPin of a base object, unpinned at once
//
// Counted references only ever point from an epoch into the base, so
// deleting an epoch (whose unscan drops them) always succeeds before the
// base is deleted. The seed chooses the split, the interleaving, the
// holders, the targets and the slots; the runtime only sees the ops.

// opKind is one replay operation.
type opKind uint8

const (
	kAlloc opKind = iota
	kRefCross
	kRefLocal
	kSame
	kTrad
	kParent
	kPin
	numOpKinds
)

// op packs kind (3 bits), slot (1 bit), holder (14 bits) and target
// (14 bits). Holders and targets index an epoch's objects, the base
// region's objects or the traditional globals; setup refuses a plan
// with more than maxIndex+1 of any (the paper programs need at most
// 3,692).
type op uint32

const maxIndex = 1<<14 - 1

func mkOp(k opKind, slot, holder, target uint64) op {
	return op(uint64(k) | slot<<3 | holder<<4 | target<<18)
}

func (o op) kind() opKind   { return opKind(o & 7) }
func (o op) slot() int      { return int(o>>3) & 1 }
func (o op) holder() uint64 { return uint64(o>>4) & maxIndex }
func (o op) target() uint64 { return uint64(o >> 18) }

// tradGlobals is the number of traditional-region objects each replay
// arena allocates once, as the targets of traditional stores (the
// paper's globals and static data live in the traditional region).
const tradGlobals = 64

// epochPlan is the exact op budget of one epoch region.
type epochPlan struct {
	sub bool
	n   [numOpKinds]int32
}

// programPlan is one program's replay: base allocations, epochs, and
// the per-program seed the op generator runs from. ops is the whole
// program's op stream, epoch after epoch, generated once in setup (see
// generate) so that a timed pass only dispatches.
type programPlan struct {
	mix       programMix
	baseAlloc int
	epochs    []epochPlan
	seed      uint64
	maxObjs   int // largest epoch object count, to size buffers
	ops       []op
}

// rng is splitmix64: tiny, fast, and good enough to pick indices.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// intn returns a value in [0, n) for n > 0.
func (r *rng) intn(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

func nameSeed(seed uint64, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ h.Sum64()
}

// buildPlan splits mix over its epochs from seed.
func buildPlan(mix programMix, seed uint64) programPlan {
	p := programPlan{mix: mix, seed: nameSeed(seed, mix.Name)}
	r := rng{p.seed}
	nEpochs := int(mix.Created - 1)
	p.baseAlloc = int(mix.Allocs / mix.Created)
	if p.baseAlloc < 1 {
		p.baseAlloc = 1
	}
	p.epochs = make([]epochPlan, nEpochs)
	// Epoch sizes spread over a 13:1 range, skewed small, and half the
	// epochs are subregions. The sizes and kinds are fixed; the seed
	// permutes them, so every seed replays the same amount of work.
	w := make([]float64, nEpochs)
	for i := range w {
		u := (float64(i) + 0.5) / float64(nEpochs)
		w[i] = 0.25 + 3*u*u
		p.epochs[i].sub = i%2 == 1
	}
	for i := nEpochs - 1; i > 0; i-- {
		j := r.intn(uint64(i + 1))
		w[i], w[j] = w[j], w[i]
		k := r.intn(uint64(i + 1))
		p.epochs[i].sub, p.epochs[k].sub = p.epochs[k].sub, p.epochs[i].sub
	}
	totals := [numOpKinds]int64{
		kAlloc:    mix.Allocs - int64(p.baseAlloc),
		kRefCross: mix.Cross,
		kRefLocal: mix.SetRef - mix.Cross,
		kSame:     mix.Same,
		kTrad:     mix.Trad,
		kParent:   mix.Parent,
		kPin:      mix.Pins,
	}
	for k, total := range totals {
		for i, n := range apportion(total, w) {
			p.epochs[i].n[k] = int32(n)
		}
	}
	// Every epoch with work needs one object to hold its stores.
	for i := range p.epochs {
		e := &p.epochs[i]
		if e.n[kAlloc] > 0 || e.busy() == 0 {
			continue
		}
		big := 0
		for j := range p.epochs {
			if p.epochs[j].n[kAlloc] > p.epochs[big].n[kAlloc] {
				big = j
			}
		}
		p.epochs[big].n[kAlloc]--
		e.n[kAlloc]++
	}
	for _, e := range p.epochs {
		if int(e.n[kAlloc]) > p.maxObjs {
			p.maxObjs = int(e.n[kAlloc])
		}
	}
	return p
}

// opRNG returns the generator state a replay of the program starts
// from; every pass of one plan issues the same stream.
func (p *programPlan) opRNG() rng { return rng{p.seed ^ 0x2545F4914F6CDD1D} }

// len is the epoch's op count.
func (e *epochPlan) len() int {
	var s int
	for _, n := range e.n {
		s += int(n)
	}
	return s
}

// busy is the epoch's non-allocation op count.
func (e *epochPlan) busy() int32 {
	var s int32
	for k := kRefCross; k < numOpKinds; k++ {
		s += e.n[k]
	}
	return s
}

// apportion splits total over the weights by largest remainder, so the
// parts sum to total exactly.
func apportion(total int64, w []float64) []int64 {
	var sum float64
	for _, x := range w {
		sum += x
	}
	out := make([]int64, len(w))
	rem := make([]float64, len(w))
	var given int64
	for i, x := range w {
		exact := float64(total) * x / sum
		out[i] = int64(exact)
		rem[i] = exact - float64(out[i])
		given += out[i]
	}
	idx := make([]int, len(w))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return rem[idx[a]] > rem[idx[b]] })
	for i := 0; given < total; i, given = i+1, given+1 {
		out[idx[i]]++
	}
	return out
}

// genEpoch appends epoch e's ops to dst. The first op allocates, so
// every store has a holder; after that the next op's kind is drawn in
// proportion to the remaining budget, so the counts come out exact.
func genEpoch(dst []op, e *epochPlan, r *rng, baseObjs int) []op {
	left := e.n
	var total uint64
	for _, n := range left {
		total += uint64(n)
	}
	objs := uint64(0)
	for total > 0 {
		var k opKind
		if objs == 0 {
			k = kAlloc
		} else {
			x := r.intn(total)
			for k = 0; x >= uint64(left[k]); k++ {
				x -= uint64(left[k])
			}
		}
		left[k]--
		total--
		var slot, holder, target uint64
		switch k {
		case kAlloc:
			objs++
			dst = append(dst, mkOp(k, 0, 0, 0))
			continue
		case kRefCross, kPin:
			target = r.intn(uint64(baseObjs))
		case kRefLocal, kSame:
			target = r.intn(objs)
		case kTrad:
			target = r.intn(tradGlobals)
		case kParent:
			if e.sub {
				target = r.intn(uint64(baseObjs))
			} else {
				target = r.intn(objs)
			}
		}
		if k != kPin {
			holder = r.intn(objs)
		}
		if k == kRefCross || k == kRefLocal {
			slot = r.next() & 1
		}
		dst = append(dst, mkOp(k, slot, holder, target))
	}
	return dst
}

// generate writes every plan's op stream into one buffer from alloc
// and points each plan's ops at its part.
func generate(plans []programPlan, alloc func(n int) []op) error {
	n := 0
	for i := range plans {
		p := &plans[i]
		if p.maxObjs > maxIndex+1 || p.baseAlloc > maxIndex+1 {
			return fmt.Errorf("%s: %d epoch objects or %d base objects do not fit an op's %d-entry index",
				p.mix.Name, p.maxObjs, p.baseAlloc, maxIndex+1)
		}
		for j := range p.epochs {
			n += p.epochs[j].len()
		}
	}
	buf := alloc(n)[:0]
	for i := range plans {
		p := &plans[i]
		start := len(buf)
		r := p.opRNG()
		for j := range p.epochs {
			buf = genEpoch(buf, &p.epochs[j], &r, p.baseAlloc)
		}
		p.ops = buf[start:len(buf):len(buf)]
	}
	return nil
}

// streamDigest hashes the plans' generated ops, in replay order.
func streamDigest(plans []programPlan) uint64 {
	h := uint64(0xcbf29ce484222325)
	mixIn := func(v uint64) {
		h ^= v
		h *= 0x100000001b3
	}
	for i := range plans {
		p := &plans[i]
		mixIn(uint64(p.baseAlloc))
		for j := range p.epochs {
			if p.epochs[j].sub {
				mixIn(1)
			} else {
				mixIn(2)
			}
		}
		for _, o := range p.ops {
			mixIn(uint64(o))
		}
	}
	return h
}
