//go:build !linux

package kernels

// Without Linux's transparent huge pages NewAmps is make plus the first
// touch, and nothing sits on a 2 MiB page that this package could count.

func adviseHuge([]byte) {}

func thpMode() string { return "" }

func hugeBytes([]byteRange) int64 { return 0 }
