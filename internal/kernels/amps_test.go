package kernels

import (
	"fmt"
	"testing"
	"unsafe"

	"qusim/internal/telemetry"
)

func TestNewAmps(t *testing.T) {
	t.Run("complex128", testNewAmps[complex128])
	t.Run("complex64", testNewAmps[complex64])
}

func testNewAmps[T complexAmp](t *testing.T) {
	var one T = 1
	size := int(unsafe.Sizeof(one))
	for _, n := range []int{
		0, 1,
		hugeMinBytes/size - 1, hugeMinBytes / size, hugeMinBytes/size + 1, // around the threshold
		(hugePageBytes + basePageBytes) / size, // too short to be sure of one whole 2 MiB block
		1 << 22,
	} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			amps := NewAmps[T](n)
			if len(amps) != n || cap(amps) != n {
				t.Fatalf("len %d cap %d, want both %d", len(amps), cap(amps), n)
			}
			for i, a := range amps {
				if a != 0 {
					t.Fatalf("amps[%d] = %v in a new buffer", i, a)
				}
			}
			// Leave the span dirty for whichever case recycles it.
			for i := range amps {
				amps[i] = one
			}
		})
	}
}

func TestObservePages(t *testing.T) {
	a, b := NewAmps[complex64](1<<21), NewAmps[complex64](1<<10)
	tel := telemetry.New()
	ObservePages(tel, a, b)
	if got, want := tel.Gauge("mem.state_bytes").Value(), int64(8*(len(a)+len(b))); got != want {
		t.Errorf("mem.state_bytes = %d, want %d", got, want)
	}
	if got, want := tel.Gauge("mem.huge_bytes").Value(), HugeBytes(a, b); got != want || got > int64(8*len(a)) {
		t.Errorf("mem.huge_bytes = %d, HugeBytes says %d of a %d-byte buffer", got, want, 8*len(a))
	}
	ObservePages(telemetry.Disabled, a, b) // a nil check, no panic
	if why := WhyNoHugePages(int64(8 * len(b))); why == "" {
		t.Error("WhyNoHugePages gives no reason for a buffer under the threshold")
	}
}
