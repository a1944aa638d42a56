package slab

import (
	"errors"
	"fmt"
	"sync"
	"unsafe"
)

// Sentinel errors, wrapped (never returned bare) so callers can
// errors.Is through the chain fmt.Errorf builds.
var (
	// ErrMapFailed reports that mapping a new segment failed; the OS
	// error is in the chain behind it.
	ErrMapFailed = errors.New("slab: mapping backing memory failed")
	// ErrExhausted reports the Config.MaxBytes budget is spent.
	ErrExhausted = errors.New("slab: store byte budget exhausted")
	// ErrClosed reports an allocation from a closed store.
	ErrClosed = errors.New("slab: store closed")
	// ErrTooLarge rejects a request above the largest size class.
	ErrTooLarge = errors.New("slab: allocation exceeds the largest size class")
)

// classSizes are the block size classes, all multiples of the smallest
// so bump-carving mixed classes out of one segment keeps every block
// 8 KiB-aligned. 8 KiB is the paper's region block size; the larger
// classes exist for callers that batch more aggressively.
var classSizes = [...]int{blockAlign, 16 << 10, 32 << 10, 64 << 10}

// blockAlign is the alignment of every block: the smallest class.
const blockAlign = 8 << 10

// defaultSegmentBytes is the mapping granularity: segments are mapped
// rarely and carved often, so they are much larger than any class.
const defaultSegmentBytes = 1 << 20

// classFor returns the index of the smallest class holding size, or -1
// when no class does.
func classFor(size int) int {
	if size <= 0 {
		return -1
	}
	for i, cs := range classSizes {
		if size <= cs {
			return i
		}
	}
	return -1
}

// Config configures a Store. The zero value is ready to use: unlimited
// budget, 1 MiB segments, mmap where available.
type Config struct {
	// MaxBytes caps the total bytes of segments the store will map;
	// 0 means unlimited. Alloc fails with ErrExhausted once a refill
	// would exceed it.
	MaxBytes int64
	// SegmentBytes overrides the mapping granularity (rounded up to
	// the largest class size); 0 means the 1 MiB default. Small
	// segments exist for tests that want to exercise many map calls.
	SegmentBytes int
	// ForceHeap selects the GC-heap []byte segment backend even on
	// platforms with mmap — the same code path platforms without mmap
	// always take. Heap segments hold no pointers, so the GC still
	// never scans block contents; what ForceHeap gives up is only the
	// immediate return of memory to the OS at Close.
	ForceHeap bool
}

// segment is one mapped (or heap-allocated) region of backing memory,
// bump-carved into class blocks.
type segment struct {
	buf    []byte // the blockAlign-aligned window carving uses
	raw    []byte // the whole mapping, which Close unmaps
	mapped bool   // true: syscall-mapped, Close must munmap
	off    int    // carve cursor
}

// class is one size class: its block size and the segregated free list
// of recycled blocks.
type class struct {
	free []unsafe.Pointer
}

// Stats is a snapshot of a Store's accounting. The internal invariant
// the auditor (rcgo's slab-store-accounting rule) checks:
// CarvedPages == InUsePages + FreePages, and Allocs - Frees ==
// InUsePages, always, even mid-flight, because every transition
// happens under the store mutex.
type Stats struct {
	// Segments / MappedBytes describe the raw backing memory; an mmap
	// segment's extra alignment block (see mapSegment) is not counted.
	Segments    int64 `json:"segments"`
	MappedBytes int64 `json:"mapped_bytes"`
	// CarvedPages counts blocks ever carved out of segments;
	// InUsePages and FreePages partition them.
	CarvedPages int64 `json:"carved_pages"`
	InUsePages  int64 `json:"in_use_pages"`
	FreePages   int64 `json:"free_pages"`
	// InUseBytes / FreeBytes are the byte views of the same partition.
	InUseBytes int64 `json:"in_use_bytes"`
	FreeBytes  int64 `json:"free_bytes"`
	// Maps / Allocs / Frees are monotone operation counts.
	Maps   int64 `json:"maps"`
	Allocs int64 `json:"allocs"`
	Frees  int64 `json:"frees"`
}

// Store is a slab arena: segments of off-heap memory carved into
// size-class blocks recycled through per-class free lists. All methods
// are safe for concurrent use; the store mutex is taken only on the
// block-refill edge of callers that batch (rcgo carves one 8 KiB block
// per object-chunk refill), never per object.
type Store struct {
	mu       sync.Mutex
	segBytes int
	maxBytes int64
	useMmap  bool
	closed   bool
	segs     []segment
	classes  [len(classSizes)]class
	stats    Stats

	// mapFn maps one segment; defaults to the platform backend and is
	// swappable by in-package tests to exercise the ErrMapFailed path.
	mapFn func(size int) ([]byte, error)
}

// New creates an empty store. No memory is mapped until the first
// Alloc.
func New(cfg Config) *Store {
	seg := cfg.SegmentBytes
	if seg <= 0 {
		seg = defaultSegmentBytes
	}
	if max := classSizes[len(classSizes)-1]; seg < max {
		seg = max
	}
	s := &Store{segBytes: seg, maxBytes: cfg.MaxBytes, useMmap: mmapAvailable && !cfg.ForceHeap}
	s.mapFn = s.mapSegment
	return s
}

// mapSegment obtains one segment from the configured backend. mmap
// aligns only to the OS page, which may be smaller than blockAlign, so
// an mmap segment maps one extra block of address space and carving
// starts at its first blockAlign boundary; the unused pages are never
// touched. A heap segment is a large object, which the Go allocator
// starts on an 8 KiB page boundary.
func (s *Store) mapSegment(size int) ([]byte, error) {
	if s.useMmap {
		b, err := sysMap(size + blockAlign)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrMapFailed, err)
		}
		return b, nil
	}
	return make([]byte, size), nil
}

// Alloc returns a zeroed block of the smallest class holding size.
// Recycled blocks are zeroed here (freshly mapped memory already is),
// so callers always see the zero-value guarantee and no stale word in
// a reused block can masquerade as a pointer.
func (s *Store) Alloc(size int) (unsafe.Pointer, error) {
	ci := classFor(size)
	if ci < 0 {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, size)
	}
	cs := classSizes[ci]
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: alloc of %d bytes", ErrClosed, size)
	}
	c := &s.classes[ci]
	if n := len(c.free); n > 0 {
		p := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		s.stats.FreePages--
		s.stats.FreeBytes -= int64(cs)
		s.stats.InUsePages++
		s.stats.InUseBytes += int64(cs)
		s.stats.Allocs++
		s.mu.Unlock()
		// Zero-on-recycle, outside the lock: the block is exclusively
		// the caller's from the moment it left the free list.
		clear(unsafe.Slice((*byte)(p), cs))
		return p, nil
	}
	p, err := s.carveLocked(cs)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.stats.CarvedPages++
	s.stats.InUsePages++
	s.stats.InUseBytes += int64(cs)
	s.stats.Allocs++
	s.mu.Unlock()
	return p, nil
}

// carveLocked bump-carves one block of cs bytes, mapping a new segment
// when the current one's remainder is too small (the remainder is
// wasted — at most one largest-class block per segment, a bounded
// price for keeping the carve a cursor bump).
func (s *Store) carveLocked(cs int) (unsafe.Pointer, error) {
	if n := len(s.segs); n > 0 {
		if seg := &s.segs[n-1]; seg.off+cs <= len(seg.buf) {
			p := unsafe.Pointer(&seg.buf[seg.off])
			seg.off += cs
			return p, nil
		}
	}
	segSize := s.segBytes
	if segSize < cs {
		segSize = cs
	}
	if s.maxBytes > 0 && s.stats.MappedBytes+int64(segSize) > s.maxBytes {
		return nil, fmt.Errorf("%w: %d of %d bytes mapped", ErrExhausted, s.stats.MappedBytes, s.maxBytes)
	}
	buf, err := s.mapFn(segSize)
	if err != nil {
		return nil, err
	}
	pad := -int(uintptr(unsafe.Pointer(&buf[0]))) & (blockAlign - 1)
	s.segs = append(s.segs, segment{buf: buf[pad : pad+segSize], raw: buf, mapped: s.useMmap})
	s.stats.Segments++
	s.stats.MappedBytes += int64(segSize)
	s.stats.Maps++
	seg := &s.segs[len(s.segs)-1]
	p := unsafe.Pointer(&seg.buf[0])
	seg.off = cs
	return p, nil
}

// Free returns a block to its class free list for immediate reuse.
// The size must be the one passed to Alloc. Freeing into a closed
// store is a harmless no-op (the segments are already unmapped or on
// their way); freeing nil is too.
func (s *Store) Free(p unsafe.Pointer, size int) {
	ci := classFor(size)
	if p == nil || ci < 0 {
		return
	}
	cs := classSizes[ci]
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.classes[ci].free = append(s.classes[ci].free, p)
	s.stats.FreePages++
	s.stats.FreeBytes += int64(cs)
	s.stats.InUsePages--
	s.stats.InUseBytes -= int64(cs)
	s.stats.Frees++
	s.mu.Unlock()
}

// Stats returns a snapshot of the store's accounting.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	return st
}

// Close unmaps every segment and marks the store closed. Idempotent:
// the second and later calls return nil and do nothing. Every
// outstanding block becomes invalid at once — callers own the
// quiescence argument (rcgo closes only after its arena quiesces).
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	segs := s.segs
	s.segs = nil
	for i := range s.classes {
		s.classes[i].free = nil
	}
	s.mu.Unlock()
	var first error
	for _, seg := range segs {
		if seg.mapped {
			if err := sysUnmap(seg.raw); err != nil && first == nil {
				first = fmt.Errorf("%w: unmap: %v", ErrMapFailed, err)
			}
		}
	}
	return first
}
