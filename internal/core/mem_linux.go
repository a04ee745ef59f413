package core

import (
	"strconv"
	"syscall"
)

// mapMem reserves n bytes of address space from an anonymous private
// mapping. The reservation costs nothing until used: an untouched page
// reads as zero and the kernel backs a page on its first write, so an
// endpoint costs what its run touches rather than MemBytes.
func mapMem(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS|syscall.MAP_NORESERVE)
	if err != nil {
		panic("core: mapping " + strconv.Itoa(n) + " bytes of endpoint memory: " + err.Error())
	}
	return b
}

// unmapMem returns a mapMem mapping to the kernel. Releasing one twice
// panics: the second Munmap finds no mapping at that address.
func unmapMem(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic("core: releasing endpoint memory: " + err.Error())
	}
}
