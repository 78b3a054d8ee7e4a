package analysis

import "testing"

// TestParseFormatVerbs pins the format scanner errwrap uses to map verbs
// to operand indexes.
func TestParseFormatVerbs(t *testing.T) {
	cases := []struct {
		name string
		raw  string
		want []fmtVerb
		ok   bool
	}{
		{"plain", `"load %s: %v"`, []fmtVerb{{0, 's'}, {1, 'v'}}, true},
		{"wrap", `"%w: %w"`, []fmtVerb{{0, 'w'}, {1, 'w'}}, true},
		{"escapedPercent", `"100%% done %d"`, []fmtVerb{{0, 'd'}}, true},
		{"flags", `"%+v %-10s %#x % d %08.3f"`, []fmtVerb{{0, 'v'}, {1, 's'}, {2, 'x'}, {3, 'd'}, {4, 'f'}}, true},
		{"starWidth", `"%*d"`, []fmtVerb{{1, 'd'}}, true}, // * consumes arg 0
		{"starPrecision", `"%.*f"`, []fmtVerb{{1, 'f'}}, true},
		{"bothStars", `"%*.*f"`, []fmtVerb{{2, 'f'}}, true},
		{"indexed", `"%[1]d"`, nil, false}, // explicit indexes: bail out
		{"trailingPercent", `%`, nil, true},
		{"noVerbs", `"no formatting here"`, nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := parseFormatVerbs(tc.raw)
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v", ok, tc.ok)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %d verbs %+v, want %d", len(got), got, len(tc.want))
			}
			for i, w := range tc.want {
				if got[i] != w {
					t.Errorf("verb %d: got {arg:%d %q}, want {arg:%d %q}", i, got[i].arg, got[i].verb, w.arg, w.verb)
				}
			}
		})
	}
}
