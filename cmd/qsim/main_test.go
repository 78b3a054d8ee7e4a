package main

import (
	"os"
	"strings"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/telemetry"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		ranks int
		flags string // the boolean conditions that hold, space-separated
		want  string // the error; "" = accepted
	}{
		{1, "", ""},
		{8, "-sample -profile -checkpoint-dir -resume", ""},
		{1, "-ooc -checkpoint-dir -resume", ""},
		{1, "-f32 -tune -tune-cache", ""},
		{4, "-baseline", ""},
		{4, "-baseline -sample -profile -checkpoint-dir -resume", ""},
		{4, "-kmax -plan -tune", ""},

		{0, "", "ranks must be a power of two, got 0"},
		{6, "", "ranks must be a power of two, got 6"},
		{2, "-ooc", "-ooc cannot be combined with -ranks > 1"},
		{1, "-ooc -baseline", "-ooc cannot be combined with -baseline"},
		{1, "-ooc -sample", "-ooc cannot be combined with -sample"},
		{1, "-ooc -profile", "-ooc cannot be combined with -profile"},
		{2, "-f32", "-f32 cannot be combined with -ranks > 1"},
		{1, "-f32 -baseline", "-f32 cannot be combined with -baseline"},
		{1, "-f32 -ooc", "-f32 cannot be combined with -ooc"},
		{1, "-f32 -sample", "-f32 cannot be combined with -sample"},
		{1, "-f32 -profile", "-f32 cannot be combined with -profile"},
		{1, "-f32 -checkpoint-dir", "-f32 cannot be combined with -checkpoint-dir"},
		{1, "-f32 -resume", "-f32 cannot be combined with -resume"},
		{4, "-baseline -plan", "-baseline cannot be combined with -plan"},
		{4, "-baseline -tune", "-baseline cannot be combined with -tune"},
		{4, "-baseline -kmax", "-baseline cannot be combined with -kmax"},
		{4, "-resume", "-resume needs -checkpoint-dir"},
		{1, "-ooc -resume", "-resume needs -checkpoint-dir"},
		{1, "-tune-cache", "-tune-cache does nothing without -tune"},
	} {
		given := map[string]bool{}
		for _, f := range strings.Fields(tc.flags) {
			given[f] = true
		}
		got := ""
		if err := checkFlags(tc.ranks, given); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("-ranks %d %s: error %q, want %q", tc.ranks, tc.flags, got, tc.want)
		}
	}
}

// TestFailedOutOfCoreRunRemovesStateFile: a run error after the vector exists
// (here a checkpoint directory that is no directory) comes back as an error
// with the state file already removed, where fatal() used to exit past the
// deferred Close.
func TestFailedOutOfCoreRunRemovesStateFile(t *testing.T) {
	dir := t.TempDir()
	err := runOutOfCore(circuit.QFT(8), telemetry.Disabled, oocOptions{
		chunk: 6, dir: dir, sched: schedFlags{kmax: 5}, ckptDir: os.DevNull, ckptEvery: 1, resume: true,
	})
	if err == nil {
		t.Fatal("a checkpoint directory that is no directory did not fail the run")
	}
	entries, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	for _, e := range entries {
		t.Errorf("failed run left %s behind", e.Name())
	}
}
