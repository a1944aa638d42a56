//go:build !linux

package main

// mapOps returns room for n ops on the Go heap where the benchmark does
// not map memory itself.
func mapOps(n int) ([]op, func()) { return make([]op, n), func() {} }
