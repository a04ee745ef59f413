//go:build !linux

package core

// Elsewhere endpoint memory is a zeroed Go slice, and the collector
// frees it.

func mapMem(n int) []byte { return make([]byte, n) }

func unmapMem([]byte) {}
