package main

import (
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		bench, trace string
		workers      int
		wantErr      string // "" = accepted
	}{
		{"GUPS", "", 0, ""},
		{"GUPS", "out.json", 4, ""},
		{"all", "", 8, ""},
		{"all", "out.json", 0, "-trace records a single run"},
		{"GUPS", "", -1, "-j -1"},
		{"all", "", -3, "-j -3"},
	} {
		err := checkFlags(tc.bench, tc.trace, tc.workers)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("checkFlags(%q, %q, %d) = %v, want nil", tc.bench, tc.trace, tc.workers, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("checkFlags(%q, %q, %d) = %v, want an error containing %q", tc.bench, tc.trace, tc.workers, err, tc.wantErr)
		}
	}
}
