package main

import (
	"syscall"
	"unsafe"
)

// mapOps returns room for n ops outside the Go heap, and a function
// that unmaps it. A replay's op streams are tens of MiB: on the heap
// they would raise the collector's heap goal, so the replayed runtime
// would collect less often than its own live heap makes it.
func mapOps(n int) ([]op, func()) {
	if n == 0 {
		return nil, func() {}
	}
	size := n * int(unsafe.Sizeof(op(0)))
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return make([]op, n), func() {}
	}
	return unsafe.Slice((*op)(unsafe.Pointer(&b[0])), n), func() { syscall.Munmap(b) }
}
