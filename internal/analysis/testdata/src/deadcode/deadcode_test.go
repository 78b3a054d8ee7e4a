package deadcode

import "testing"

// TestTestOnly is the only caller of testOnly: a use from a test file is
// not an edge.
func TestTestOnly(t *testing.T) {
	if testOnly() != 2 {
		t.Fatal("testOnly")
	}
}
