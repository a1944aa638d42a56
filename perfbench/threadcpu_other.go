//go:build !linux

package main

import "time"

var threadBase = time.Now()

// threadCPU falls back to the monotonic clock where there is no
// per-thread CPU clock.
func threadCPU() int64 { return int64(time.Since(threadBase)) }
