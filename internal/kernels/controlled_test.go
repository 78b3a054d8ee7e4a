package kernels

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"qusim/internal/gate"
)

func TestApplyControlledMatchesControlledMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	n := 9
	for trial := 0; trial < 12; trial++ {
		k := 1 + rng.Intn(2)
		nc := 1 + rng.Intn(2)
		perm := rng.Perm(n)
		qs := append([]int(nil), perm[:k]...)
		controls := append([]int(nil), perm[k:k+nc]...)
		sortInts(qs)
		u := gate.RandomUnitary(k, rng)

		state := randomState(n, rng)
		got := make([]complex128, len(state))
		copy(got, state)
		ApplyControlled(got, u.Data, qs, controls)

		// Reference: build the controlled matrix via gate.Controlled and
		// dense-apply it.
		cu := u
		cpos := append([]int(nil), qs...)
		for _, c := range controls {
			cu = gate.Controlled(cu)
			cpos = append(cpos, c)
		}
		want := denseApply(state, cu, cpos, n)
		if d := maxDiff(got, want); d > 1e-10 {
			t.Fatalf("trial %d (qs=%v ctrl=%v): max diff %g", trial, qs, controls, d)
		}
	}
}

func TestApplyControlledNoControlsFallsThrough(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	u := gate.RandomUnitary(2, rng)
	state := randomState(7, rng)
	a := make([]complex128, len(state))
	b := make([]complex128, len(state))
	copy(a, state)
	copy(b, state)
	ApplyControlled(a, u.Data, []int{1, 4}, nil)
	Apply(b, u.Data, []int{1, 4})
	if d := maxDiff(a, b); d > 1e-12 {
		t.Errorf("no-control path deviates: %g", d)
	}
}

func TestApplyControlledOnlyTouchesControlledSubspace(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	u := gate.RandomUnitary(1, rng)
	state := randomState(6, rng)
	got := make([]complex128, len(state))
	copy(got, state)
	ApplyControlled(got, u.Data, []int{0}, []int{3})
	for i := range state {
		if i&(1<<3) == 0 && got[i] != state[i] {
			t.Fatalf("amplitude %d (control clear) was modified", i)
		}
	}
}

func TestApplyControlledPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	state := randomState(6, rng)
	got := make([]complex128, len(state))
	copy(got, state)
	phase := cmplx.Exp(complex(0, 0.9))
	ApplyControlledPhase(got, []int{1, 4}, phase)
	for i := range state {
		want := state[i]
		if i&(1<<1) != 0 && i&(1<<4) != 0 {
			want *= phase
		}
		if cmplx.Abs(got[i]-want) > 1e-13 {
			t.Fatalf("amplitude %d: got %v want %v", i, got[i], want)
		}
	}
}

func TestApplyControlledPanics(t *testing.T) {
	amps := make([]complex128, 16)
	u := gate.H()
	for i, fn := range []func(){
		func() { ApplyControlled(amps, u.Data, []int{0}, []int{0}) },    // overlap
		func() { ApplyControlled(amps, u.Data, []int{0}, []int{9}) },    // range
		func() { ApplyControlled(amps, u.Data, []int{0}, []int{2, 2}) }, // dup
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}
