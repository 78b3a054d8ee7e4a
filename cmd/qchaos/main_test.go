package main

import (
	"os"
	"strings"
	"testing"

	"qusim/internal/chaos"
)

// TestChaosLegRowNamesGolden holds the two chaos legs, at the default flags,
// to the [qchaos] section of the verify matrix's golden row-name list.
func TestChaosLegRowNamesGolden(t *testing.T) {
	data, err := os.ReadFile("../../internal/verify/testdata/matrix.golden")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "[qchaos]\n")
	if !ok {
		t.Fatal("matrix.golden has no [qchaos] section")
	}
	section, _, _ = strings.Cut(section, "\n[")
	want := strings.TrimSpace(section)

	copts := chaos.ComposeOptions{Ranks: 4}
	dist := &chaosDist{seed: 1, copts: copts}
	ooc := &chaosOoc{seed: 1, globals: 2, copts: copts}
	if got := dist.row().Name() + "\n" + ooc.row().Name(); got != want {
		t.Errorf("chaos leg row names changed:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
