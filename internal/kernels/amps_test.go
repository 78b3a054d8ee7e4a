package kernels

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
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

func TestPopulated(t *testing.T) {
	t.Run("complex128", testPopulated[complex128])
	t.Run("complex64", testPopulated[complex64])
}

// testPopulated puts one nonzero amplitude on every page of 2^17 in turn, at
// a different offset each time, and a −0 or a NaN part at the top; each
// marks its page populated, and an all-zero buffer is populated nowhere.
func testPopulated[T complexAmp](t *testing.T) {
	const n = 1 << 17
	amps := NewAmps[T](n)
	page := basePageBytes / int(unsafe.Sizeof(amps[0]))
	if got := Populated(amps); got != 0 {
		t.Fatalf("all zero: Populated = %d, want 0", got)
	}
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	for p := 0; p < n/page; p++ {
		i := p*page + p*37%page
		amps[i] = T(complex(0, 1e-30))
		if got, want := Populated(amps), (p+1)*page; got != want {
			t.Fatalf("amplitude %d set: Populated = %d, want %d", i, got, want)
		}
		amps[i] = 0
	}
	// Wide enough for the scan to split between workers: pages in either
	// worker's share and at the seam between them.
	wide := NewAmps[T](1 << 20)
	pages := len(wide) / page
	for _, p := range []int{0, 1, pages/2 - 2, pages/2 - 1, pages / 2, pages - 2, pages - 1} {
		wide[p*page+page/2] = 1
		if got, want := Populated(wide), (p+1)*page; got != want {
			t.Fatalf("page %d of %d set: Populated = %d, want %d", p, pages, got, want)
		}
		wide[p*page+page/2] = 0
	}
	for name, a := range map[string]T{"−0 real": T(complex(negZero, 0)), "−0 imag": T(complex(0, negZero)), "NaN": T(complex(nan, 0))} {
		amps[n-1] = a
		if got := Populated(amps); got != n {
			t.Errorf("%s at the top: Populated = %d, want %d", name, got, n)
		}
		amps[n-1] = 0
	}
}

// TestWireViewAndEncodingAgree: the wire encoding a little-endian host hands
// out as a view of amplitude memory is byte for byte the per-element
// encoding the other branch builds window by window — 8-byte words for
// complex128, 4-byte ones for complex64 — and FromWire restores the
// amplitudes through either branch, at lengths around the window.
func TestWireViewAndEncodingAgree(t *testing.T) {
	if !littleEndian {
		t.Skip("big-endian host: the encoding branch is the only one")
	}
	t.Run("complex128", func(t *testing.T) {
		wireRoundTrip[complex128](t, 8, -1000, func(b []byte, x float64) []byte {
			return binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		})
	})
	t.Run("complex64", func(t *testing.T) {
		wireRoundTrip[complex64](t, 4, -140, func(b []byte, x float32) []byte {
			return binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
		})
	})
}

// wireRoundTrip runs TestWireViewAndEncodingAgree at one precision: word is
// the width of a part, tiny the exponent of the smallest imaginary part,
// and put appends a part's per-element encoding.
func wireRoundTrip[T complex64 | complex128, F float32 | float64](t *testing.T, word, tiny int, put func([]byte, F) []byte) {
	wire := func(amps []T) (b []byte, calls int) {
		ToWire(AmpBytes(amps), word, func(p []byte) error {
			if len(p) > wireWindow && !littleEndian {
				t.Fatalf("encoding branch handed out %d bytes at once", len(p))
			}
			b, calls = append(b, p...), calls+1
			return nil
		})
		return b, calls
	}
	unwire := func(b []byte, n int) []T {
		amps := make([]T, n)
		r := bytes.NewReader(b)
		if err := FromWire(AmpBytes(amps), word, func(p []byte) error { _, err := io.ReadFull(r, p); return err }); err != nil {
			t.Fatal(err)
		}
		return amps
	}
	perWindow := wireWindow / (2 * word)
	for _, n := range []int{0, 1, 7, perWindow - 1, perWindow, perWindow + 1, 2*perWindow + 3} {
		amps := make([]T, n)
		want := make([]byte, 0, 2*word*n)
		for i := range amps {
			re, im := F(float64(i)+0.25), F(-math.Ldexp(float64(n-i), tiny))
			amps[i] = T(complex(float64(re), float64(im)))
			want = put(put(want, re), im)
		}
		view, viewCalls := wire(amps)
		viewBack := unwire(want, n)
		littleEndian = false
		enc, encCalls := wire(amps)
		encBack := unwire(want, n)
		littleEndian = true
		if !bytes.Equal(view, want) || !bytes.Equal(enc, want) {
			t.Fatalf("n=%d: view (%d bytes) or encoding (%d bytes) differs from the per-element encoding", n, len(view), len(enc))
		}
		if viewCalls != 1 || encCalls != (n+perWindow-1)/perWindow {
			t.Errorf("n=%d: %d view calls, %d encoding calls", n, viewCalls, encCalls)
		}
		for i := range amps {
			if viewBack[i] != amps[i] || encBack[i] != amps[i] {
				t.Fatalf("n=%d: amplitude %d read back as %v (view) and %v (encoding), want %v", n, i, viewBack[i], encBack[i], amps[i])
			}
		}
	}
}
