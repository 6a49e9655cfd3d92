package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main instead of the tests when the test binary is started
// as the moca-trace command by runCommand.
func TestMain(m *testing.M) {
	if os.Getenv("MOCA_TRACE_TEST_MAIN") == "1" {
		os.Args = append([]string{"moca-trace"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCommand runs moca-trace with args and returns its stderr and whether
// it exited zero.
func runCommand(t *testing.T, args ...string) (stderr string, ok bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MOCA_TRACE_TEST_MAIN=1")
	var errBuf strings.Builder
	cmd.Stderr = &errBuf
	err := cmd.Run()
	if _, exited := err.(*exec.ExitError); err != nil && !exited {
		t.Fatal(err)
	}
	return errBuf.String(), err == nil
}

// TestReplayRefusesProfiledSystems: a local replay cannot run MOCA or
// Heter-App, which place pages by profiled classes that a trace does not
// carry; it exits non-zero saying so. migrate still replays.
func TestReplayRefusesProfiledSystems(t *testing.T) {
	const fixture = "../../internal/trace/testdata/mcf-50k.v1"
	for _, system := range []string{"moca", "heter-app", "moca@config3"} {
		stderr, ok := runCommand(t, "replay", "-app", "mcf", "-measure", "20000", "-system", system, fixture)
		if ok || !strings.Contains(stderr, "profiled classes") {
			t.Errorf("replay -system %s: exited ok=%v, stderr %q; want a refusal naming the profiled classes", system, ok, stderr)
		}
	}
	if stderr, ok := runCommand(t, "replay", "-app", "mcf", "-measure", "20000", "-system", "migrate", fixture); !ok {
		t.Errorf("replay -system migrate failed: %s", stderr)
	}
}
