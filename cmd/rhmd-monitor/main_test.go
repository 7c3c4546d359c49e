package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// mainEnv makes the test binary run as rhmd-monitor itself, on its own
// arguments, so a test can drive the real flag handling.
const mainEnv = "RHMD_MONITOR_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDriftFloorOutsideUnitIsRefused: a drift floor or smoothing factor
// outside (0, 1], or a warm-up or canary window below 1, is a usage
// error before anything trains. The guard would run such a value at its
// default (and /slo would judge a floor of 0 against 0).
func TestDriftFloorOutsideUnitIsRefused(t *testing.T) {
	for _, c := range []struct {
		flag, value, why string
	}{
		{"-drift-agreement", "0", "outside (0, 1]"},
		{"-drift-accuracy", "1.5", "outside (0, 1]"},
		{"-drift-alpha", "2", "outside (0, 1]"},
		{"-drift-alpha", "0", "outside (0, 1]"},
		{"-drift-window", "0", "below 1"},
		{"-drift-canary", "-3", "below 1"},
	} {
		cmd := exec.Command(os.Args[0], c.flag, c.value, "-drift", "-slo", "-benign", "1", "-malware", "1", "-len", "4000")
		cmd.Env = append(os.Environ(), mainEnv+"=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), c.flag+" "+c.value+" "+c.why) {
			t.Fatalf("rhmd-monitor %s %s: %v, want exit status 2 naming the flag\n%s", c.flag, c.value, err, out)
		}
	}
}
