package main

// ticks reads the CPU's time-stamp counter: a span timestamp at a
// fraction of the cost of a monotonic clock read. Linux selects the tsc
// clocksource only when the counter is invariant and synchronized
// across CPUs, which is what makes spans on different CPUs comparable.
func ticks() int64
