//go:build !amd64

package main

import "time"

var ticksBase = time.Now()

// ticks falls back to the monotonic clock where there is no TSC read.
func ticks() int64 { return int64(time.Since(ticksBase)) }
