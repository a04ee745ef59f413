//go:build !windows

package lib

func platform() int { return 0 }
