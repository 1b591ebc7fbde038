package main

import "testing"

// TestRunExitCodes runs subcommands in process: churn and E9 succeed on
// their defaults, and churn refuses a sequence it cannot generate.
func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		ok   bool
	}{
		{[]string{"churn"}, true},
		{[]string{"churn", "-joins", "0.8", "-leaves", "0.5"}, false},
		{[]string{"churn", "-joins", "NaN"}, false},
		{[]string{"churn", "-events", "0"}, false},
		{[]string{"churn", "-service", "nope"}, false},
		{[]string{"exp", "-exp", "E9"}, true},
	} {
		if code := run(tc.args); (code == 0) != tc.ok {
			t.Errorf("alvc %v exited %d, want success %v", tc.args, code, tc.ok)
		}
	}
}
