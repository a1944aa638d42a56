package main

import (
	"fmt"
	"io"
	"time"

	"rcgo"
	"rcgo/internal/workloads"
)

// programMix is the op mix one paper program produces on the VM under
// one barrier mode: the counts the replay must issue exactly. It is
// derived in setup by compiling and running the program (rcgo.Compile,
// rcgo.Run), never stored.
type programMix struct {
	Name string
	// Allocs, Created and Deleted are the VM's region allocations and
	// region lifecycle counts. Deleted can fall short of Created: lcc
	// exits with one region live.
	Allocs, Created, Deleted int64
	// SetRef is the number of pointer stores that ran the full
	// reference-count update; Cross is how many of them incremented a
	// count (the VM's RCIncrements minus pins, which the VM counts as
	// increments too, exactly as the Go runtime's Pin does).
	SetRef, Cross int64
	// Same, Trad and Parent are the annotated stores by flavour.
	Same, Trad, Parent int64
	// Pins is the VM's local-variable pin count.
	Pins int64
	// VMIncrements is the VM's raw rc increment count (Cross + Pins).
	// Decrements are not compared: the stacks count them differently,
	// see BENCHMARK_NOTES.md.
	VMIncrements int64
	// CompileNs and RunNs time the pipeline stages that derived the mix.
	CompileNs, RunNs int64
}

// ops is the number of runtime calls one replay of the program issues:
// every allocation, store, pin, region creation and region deletion
// (including the deletion of regions the VM left live at exit).
func (m programMix) ops() int64 {
	return m.Allocs + m.SetRef + m.Same + m.Trad + m.Parent + m.Pins + 2*m.Created
}

// deriveMixes compiles and runs the eight paper programs at their
// default scale under mode and returns each program's op mix.
func deriveMixes(mode rcgo.Mode) ([]programMix, error) {
	var out []programMix
	for _, w := range workloads.All() {
		t0 := time.Now()
		c, err := rcgo.Compile(w.Source(0), mode)
		if err != nil {
			return nil, fmt.Errorf("compile %s/%s: %w", w.Name, mode, err)
		}
		t1 := time.Now()
		res, err := rcgo.Run(c, rcgo.RunConfig{Output: io.Discard})
		if err != nil {
			return nil, fmt.Errorf("run %s/%s: %w", w.Name, mode, err)
		}
		t2 := time.Now()
		st := res.Region
		m := programMix{
			Name:         w.Name,
			Allocs:       st.Allocs,
			Created:      st.RegionsCreated,
			Deleted:      st.RegionsDeleted,
			SetRef:       st.FullUpdates,
			Cross:        st.RCIncrements - st.PinOps,
			Same:         st.SameChecks,
			Trad:         st.TradChecks,
			Parent:       st.ParentChecks,
			Pins:         st.PinOps,
			VMIncrements: st.RCIncrements,
			CompileNs:    t1.Sub(t0).Nanoseconds(),
			RunNs:        t2.Sub(t1).Nanoseconds(),
		}
		if st.UncheckedPtrs != 0 {
			return nil, fmt.Errorf("%s/%s: %d unchecked stores; the replay has no unchecked flavour", w.Name, mode, st.UncheckedPtrs)
		}
		if m.Cross < 0 || m.Cross > m.SetRef {
			return nil, fmt.Errorf("%s/%s: %d cross-region increments for %d counted stores", w.Name, mode, m.Cross, m.SetRef)
		}
		if m.Created < 2 || m.Deleted > m.Created || m.Allocs < m.Created {
			return nil, fmt.Errorf("%s/%s: unreplayable region shape (%d created, %d deleted, %d allocs)", w.Name, mode, m.Created, m.Deleted, m.Allocs)
		}
		out = append(out, m)
	}
	return out, nil
}
