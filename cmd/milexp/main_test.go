package main

import (
	"strings"
	"testing"
	"time"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		ops     int64
		workers int
		timeout time.Duration
		wantErr string // "" = accepted
	}{
		{0, 0, 0, ""},
		{120, 8, time.Second, ""},
		{-7, 0, 0, "-ops -7"},
		{120, -3, 0, "-j -3"},
		{120, 0, -time.Second, "-cell-timeout -1s"},
		{-7, -3, -time.Second, "-ops -7"},
	} {
		err := checkFlags(tc.ops, tc.workers, tc.timeout)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("checkFlags(%d, %d, %v) = %v, want nil", tc.ops, tc.workers, tc.timeout, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("checkFlags(%d, %d, %v) = %v, want an error containing %q", tc.ops, tc.workers, tc.timeout, err, tc.wantErr)
		}
	}
}
