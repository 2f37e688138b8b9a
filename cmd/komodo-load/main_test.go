package main

import (
	"slices"
	"testing"
)

// TestSelectTargets pins the -url/-targets contract: exactly one of the
// two, never a silent winner.
func TestSelectTargets(t *testing.T) {
	for _, tc := range []struct {
		url, targets string
		want         []string
		label        string
		ok           bool
	}{
		{"http://a:1/", "", []string{"http://a:1"}, "remote", true},
		{"", "http://g:9/", []string{"http://g:9"}, "gateway", true},
		{"", "http://a:1, http://b:2/", []string{"http://a:1", "http://b:2"}, "direct/2b", true},
		{"http://a:1", "http://g:9", nil, "", false},
		{"", "", nil, "", false},
	} {
		got, label, err := selectTargets(tc.url, tc.targets)
		if (err == nil) != tc.ok || !slices.Equal(got, tc.want) || label != tc.label {
			t.Errorf("selectTargets(%q, %q) = %q, %q, %v; want %q, %q, ok=%v",
				tc.url, tc.targets, got, label, err, tc.want, tc.label, tc.ok)
		}
	}
}
