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

// TestDriftFloorOutsideUnitIsRefused: a drift floor outside (0, 1] is
// a usage error before anything trains. The guard would run a floor of
// 0 at its default while /slo judged against 0.
func TestDriftFloorOutsideUnitIsRefused(t *testing.T) {
	for _, bad := range [][]string{{"-drift-agreement", "0"}, {"-drift-accuracy", "1.5"}} {
		cmd := exec.Command(os.Args[0], append(bad, "-drift", "-slo", "-benign", "1", "-malware", "1", "-len", "4000")...)
		cmd.Env = append(os.Environ(), mainEnv+"=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), bad[0]+" "+bad[1]+" outside (0, 1]") {
			t.Fatalf("rhmd-monitor %s: %v, want exit status 2 naming the floor\n%s", strings.Join(bad, " "), err, out)
		}
	}
}
