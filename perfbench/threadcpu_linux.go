package main

import (
	"syscall"
	"unsafe"
)

// threadCPU is the calling OS thread's CPU time in ns: time the thread
// ran, excluding time the kernel or the hypervisor ran something else.
// Callers lock the goroutine to its thread.
func threadCPU() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}
