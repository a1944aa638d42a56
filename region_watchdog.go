package rcgo

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Graceful degradation for deletes that stay blocked. Delete is
// non-blocking by design — it fails with ErrRegionInUse rather than
// waiting for references to drain — so a caller that *wants* the region
// gone needs a retry policy, and an operator needs to know when a
// deferred-deleted region is never going to drain. This file provides
// both: DeleteWithRetry (bounded, jittered exponential backoff under a
// context) and ZombieWatchdog (polling detection of zombies older than
// a threshold, named with the holders that pin them, healing lost drain
// wakeups along the way).

// Backoff configures DeleteWithRetry's jittered exponential backoff.
// The zero value is usable: 1ms initial, 100ms cap, doubling, half the
// interval jittered.
type Backoff struct {
	// Initial is the first sleep (default 1ms).
	Initial time.Duration
	// Max caps the sleep (default 100ms).
	Max time.Duration
	// Multiplier grows the sleep after each failed attempt (default 2).
	Multiplier float64
	// Jitter is the fraction of each sleep drawn uniformly at random
	// (default 0.5): the actual sleep is d*(1-Jitter) + rand*d*Jitter,
	// decorrelating retry storms from concurrent deleters.
	Jitter float64
}

func (b Backoff) withDefaults() Backoff {
	if b.Initial <= 0 {
		b.Initial = time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 100 * time.Millisecond
	}
	if b.Multiplier < 1 {
		b.Multiplier = 2
	}
	if b.Jitter < 0 || b.Jitter > 1 {
		b.Jitter = 0.5
	}
	return b
}

// sleep returns the jittered duration for attempt n (0-based).
func (b Backoff) sleep(n int) time.Duration {
	d := float64(b.Initial)
	for i := 0; i < n; i++ {
		d *= b.Multiplier
		if d >= float64(b.Max) {
			d = float64(b.Max)
			break
		}
	}
	if b.Jitter > 0 {
		d = d*(1-b.Jitter) + rand.Float64()*d*b.Jitter
	}
	return time.Duration(d)
}

// DeleteWithRetry calls Delete until it succeeds, retrying with
// jittered exponential backoff while the failure is transient — the
// region is in use (ErrRegionInUse) or a failpoint injected the failure
// (ErrInjected). It stops early on a terminal outcome (the region was
// already deleted, or it is the traditional region) and returns that
// error unchanged. When ctx expires first, the returned error wraps
// both the context error and the last Delete error, so callers can
// test either with errors.Is.
func (r *Region) DeleteWithRetry(ctx context.Context, b Backoff) error {
	b = b.withDefaults()
	for attempt := 0; ; attempt++ {
		err := r.Delete()
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrRegionInUse) && !errors.Is(err, ErrInjected) {
			return err
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("rcgo: delete retry on region %d gave up: %w", r.id,
				errors.Join(ctx.Err(), err))
		case <-time.After(b.sleep(attempt)):
		}
	}
}

// SweepZombies force-drains every zombie region whose references and
// subregions have already drained, returning the number of regions
// reclaimed. A healthy arena reclaims zombies inline (the last decRC or
// child reclaim drains them) and a sweep finds nothing; the sweep
// exists as the recovery path for lost drain wakeups — the condition
// the zombie.drain failpoint induces and AuditZombieReclaimable
// reports. It loops to a fixpoint so cascades (a drained child
// unblocking a zombie parent) complete in one call. Safe to run
// concurrently with anything.
func (a *Arena) SweepZombies() int {
	total := 0
	for {
		n := 0
		a.EachRegion(func(r *Region) {
			if r.drain(true) {
				n++
			}
		})
		total += n
		if n == 0 {
			return total
		}
	}
}

// StuckZombie describes one deferred-deleted region that has stayed
// unreclaimed longer than the watchdog's threshold, with the evidence
// an operator needs: how long it has been a zombie, its current counts,
// and which regions' counted slots pin it (from the blocked-deleters
// scan).
type StuckZombie struct {
	ID int64 `json:"id"`
	// Age is how long the region has been a zombie when flagged.
	Age time.Duration `json:"age_ns"`
	RC  int64         `json:"rc"`
	// Pins is the pin subset of RC.
	Pins int64 `json:"pins"`
	// Subregions counts live children; a zombie cannot reclaim while
	// any remain, even at rc 0.
	Subregions int64 `json:"subregions,omitempty"`
	// Holders names the regions whose registered counted slots point
	// into this region, sorted by slot count descending.
	Holders []BlockedHolder `json:"holders,omitempty"`
}

// ZombieWatchdog flags deferred-deleted regions that fail to reclaim
// within a threshold. It polls arena state: each Check (called
// directly, or periodically after Start) walks the blocked-deleters
// report, which lists every zombie with its holders and the time
// DeleteDeferred made it a zombie, so a watchdog created late still
// sees zombies deferred before it existed. One pass:
//
//  1. heals lost drain wakeups — a zombie past the threshold that is
//     already drained (rc 0, no subregions) is reclaimed on the spot,
//     not flagged;
//  2. flags every zombie past the threshold that is genuinely pinned,
//     naming the pinning holder regions, and delivers each report to
//     the OnStuck callback (if set).
type ZombieWatchdog struct {
	arena     *Arena
	threshold time.Duration

	// OnStuck, if non-nil, receives every flagged zombie, once per
	// Check that finds it still stuck. Set before calling Start.
	OnStuck func(StuckZombie)

	// now is the clock, injectable in tests.
	now func() time.Time

	flagged atomic.Int64
	healed  atomic.Int64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewZombieWatchdog creates a watchdog for a with the given age
// threshold. It needs no installation: call Check, or Start it. A
// tracer, if any, is installed on the arena independently.
func NewZombieWatchdog(a *Arena, threshold time.Duration) *ZombieWatchdog {
	return &ZombieWatchdog{arena: a, threshold: threshold, now: time.Now}
}

// Check runs one watchdog pass and returns the zombies flagged as
// stuck, sorted by id. See the type comment for what one pass does.
func (w *ZombieWatchdog) Check() []StuckZombie {
	now := w.now()
	var stuck []StuckZombie
	for _, br := range w.arena.BlockedDeleters() {
		age := now.Sub(br.deferredAt)
		if age < w.threshold {
			continue
		}
		if br.RC == 0 && br.Subregions == 0 {
			// Drained but unreclaimed: a lost wakeup. Heal, don't flag.
			if br.region.drain(true) {
				w.healed.Add(1)
				continue
			}
			// Lost the race with another drainer; re-read.
			st := br.region.Stats()
			if !st.Deferred {
				continue
			}
			br.RC, br.Pins, br.Subregions = st.RC, st.Pins, st.Subregions
		}
		sz := StuckZombie{
			ID:         br.ID,
			Age:        age,
			RC:         br.RC,
			Pins:       br.Pins,
			Subregions: br.Subregions,
			Holders:    br.Holders,
		}
		stuck = append(stuck, sz)
		w.flagged.Add(1)
		if w.OnStuck != nil {
			w.OnStuck(sz)
		}
	}
	return stuck
}

// Flagged returns the cumulative number of stuck-zombie reports made.
func (w *ZombieWatchdog) Flagged() int64 { return w.flagged.Load() }

// Healed returns the cumulative number of lost drain wakeups the
// watchdog repaired (zombies it reclaimed itself).
func (w *ZombieWatchdog) Healed() int64 { return w.healed.Load() }

// Start runs Check every interval on a background goroutine until
// Stop. Start may be called at most once.
func (w *ZombieWatchdog) Start(interval time.Duration) {
	if w.stop != nil {
		panic("rcgo: ZombieWatchdog.Start called twice")
	}
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.Check()
			}
		}
	}()
}

// Stop halts the background checker and waits for it to exit. No-op if
// Start was never called; safe to call more than once.
func (w *ZombieWatchdog) Stop() {
	if w.stop == nil {
		return
	}
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}

// StaleOwner describes one region held through an Owner token longer
// than the owner watchdog's threshold, with the evidence an operator
// needs: how long the current token has been held, where it was
// acquired, and how many AcquireContext contenders are queued behind
// it.
type StaleOwner struct {
	ID int64 `json:"id"`
	// Age is how long the current token had been held when flagged
	// (measured from the region's own acquire timestamp, so a hand-off
	// that re-minted the token resets it).
	Age time.Duration `json:"age_ns"`
	// AcquireSite is the "file:line (func)" of the call that minted the
	// current token — the TryAcquire/Acquire caller, or the parked
	// AcquireContext waiter the token was handed to. Empty if no frames
	// were captured.
	AcquireSite string `json:"acquire_site,omitempty"`
	// QueueDepth is the number of waiters parked behind the stale owner
	// at flag time.
	QueueDepth int `json:"queue_depth"`
	// Revoked reports that this pass forcibly revoked the token
	// (ForceReleaseAfter elapsed): the region moved on and the stale
	// token now fails every operation with ErrOwnerRevoked.
	Revoked bool `json:"revoked,omitempty"`
}

// OwnerWatchdog flags regions that stay exclusively owned longer than a
// threshold — the ownership analogue of ZombieWatchdog, for the failure
// mode where a goroutine acquires a region and then stalls or crashes
// without releasing, wedging every parked AcquireContext waiter behind
// it. Like ZombieWatchdog it polls arena state: each Check (called
// directly, or periodically after Start) walks the registry the way
// Arena.Owners does and reads every owned region's own acquire
// timestamp, so a hand-off that re-minted the token gives the new
// holder a full threshold, and a watchdog created late still sees
// regions acquired before it existed. One pass:
//
//  1. flags every region owned past the threshold, reporting the
//     holder's acquire site and the current queue depth to the OnStale
//     callback (if set);
//  2. optionally, when ForceReleaseAfter is set and exceeded, revokes
//     the stale token (Region.revokeOwner): the token fails every
//     subsequent operation with ErrOwnerRevoked, its unflushed deltas
//     are discarded, and the region is handed to the next waiter or
//     returned to the shared state. The escape hatch is off by default
//     — revocation tears a token out of a possibly-running goroutine's
//     hands and is only safe when the owner is known to be wedged.
type OwnerWatchdog struct {
	arena     *Arena
	threshold time.Duration

	// ForceReleaseAfter, when positive, is the held-age beyond which a
	// Check forcibly revokes the stale token. Zero disables forced
	// release (detection only). Set before calling Start.
	ForceReleaseAfter time.Duration

	// OnStale, if non-nil, receives every flagged stale owner, once per
	// Check that finds it still held. Set before calling Start.
	OnStale func(StaleOwner)

	// now is the clock, injectable in tests.
	now func() time.Time

	flagged atomic.Int64
	revoked atomic.Int64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewOwnerWatchdog creates an owner watchdog for a with the given
// held-age threshold. It needs no installation: call Check, or Start
// it. A tracer, if any, is installed on the arena independently.
// Creating it arms the arena's owner observability, so tokens minted
// from then on record their acquire time and site; a token already
// held is aged from the first Check that sees it.
func NewOwnerWatchdog(a *Arena, threshold time.Duration) *OwnerWatchdog {
	a.ownersWatched.Store(true)
	return &OwnerWatchdog{arena: a, threshold: threshold, now: time.Now}
}

// Check runs one watchdog pass and returns the regions flagged as
// stalely owned, sorted by id. See the type comment for what one pass
// does.
func (w *OwnerWatchdog) Check() []StaleOwner {
	type held struct {
		r *Region
		s ownerState
	}
	var owned []held
	w.arena.EachRegion(func(r *Region) {
		if s := r.ownerInfo(); s.owner != nil {
			owned = append(owned, held{r, s})
		}
	})
	// Read the clock after the walk: ownerInfo may have just stamped a
	// token minted before arming, and an age is never negative.
	now := w.now()
	sort.Slice(owned, func(i, j int) bool { return owned[i].r.id < owned[j].r.id })

	var stale []StaleOwner
	for _, d := range owned {
		age := now.Sub(d.s.since)
		if age < w.threshold {
			continue
		}
		so := StaleOwner{ID: d.r.id, Age: age, AcquireSite: d.s.site(), QueueDepth: d.s.depth}
		// revokeOwner fails, and nothing happens, if the sampled token
		// was released or handed on since the walk.
		if w.ForceReleaseAfter > 0 && age >= w.ForceReleaseAfter && d.r.revokeOwner(d.s.owner) {
			so.Revoked = true
			w.revoked.Add(1)
		}
		stale = append(stale, so)
		w.flagged.Add(1)
		if w.OnStale != nil {
			w.OnStale(so)
		}
	}
	return stale
}

// Flagged returns the cumulative number of stale-owner reports made.
func (w *OwnerWatchdog) Flagged() int64 { return w.flagged.Load() }

// Revoked returns the cumulative number of stale tokens the watchdog
// forcibly revoked.
func (w *OwnerWatchdog) Revoked() int64 { return w.revoked.Load() }

// Start runs Check every interval on a background goroutine until
// Stop. Start may be called at most once.
func (w *OwnerWatchdog) Start(interval time.Duration) {
	if w.stop != nil {
		panic("rcgo: OwnerWatchdog.Start called twice")
	}
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.Check()
			}
		}
	}()
}

// Stop halts the background checker and waits for it to exit. No-op if
// Start was never called; safe to call more than once.
func (w *OwnerWatchdog) Stop() {
	if w.stop == nil {
		return
	}
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}
