package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"moca/internal/cmdutil"
	"moca/internal/exp"
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

// runCommand runs moca-trace with args and returns its stdout, its stderr
// and whether it exited zero.
func runCommand(t *testing.T, args ...string) (stdout, stderr string, ok bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MOCA_TRACE_TEST_MAIN=1")
	var outBuf, errBuf strings.Builder
	cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
	err := cmd.Run()
	if _, exited := err.(*exec.ExitError); err != nil && !exited {
		t.Fatal(err)
	}
	return outBuf.String(), errBuf.String(), err == nil
}

// TestReplayRefusesProfiledSystems: a local replay cannot run MOCA, whose
// placement a recording fixes without a class map; it exits non-zero
// saying so. A heter-app replay of the app's ref recording prints what
// moca-sim prints for the same app, system and -measure, with and without
// -json, and migrate still replays.
func TestReplayRefusesProfiledSystems(t *testing.T) {
	const fixture = "../../internal/trace/testdata/mcf-50k.v1"
	for _, system := range []string{"moca", "moca@config3"} {
		_, stderr, ok := runCommand(t, "replay", "-app", "mcf", "-measure", "20000", "-system", system, fixture)
		if ok || !strings.Contains(stderr, "class map") {
			t.Errorf("replay -system %s: exited ok=%v, stderr %q; want a refusal naming the class map", system, ok, stderr)
		}
	}
	if _, stderr, ok := runCommand(t, "replay", "-app", "mcf", "-measure", "20000", "-system", "migrate", fixture); !ok {
		t.Errorf("replay -system migrate failed: %s", stderr)
	}

	rec := filepath.Join(t.TempDir(), "mcf.v2")
	if _, stderr, ok := runCommand(t, "record", "-app", "mcf", "-items", "400000", "-o", rec); !ok {
		t.Fatalf("record failed: %s", stderr)
	}
	def, err := exp.SystemByName("heter-app")
	if err != nil {
		t.Fatal(err)
	}
	r := exp.NewRunner() // moca-sim's runner at its default windows
	r.Measure = 20_000
	res, err := r.RunSingle(def, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	for _, asJSON := range []bool{false, true} {
		var want strings.Builder
		if err := cmdutil.Report(&want, res, asJSON); err != nil {
			t.Fatal(err)
		}
		args := []string{"replay", "-app", "mcf", "-measure", "20000", "-system", "heter-app", rec}
		if asJSON {
			args = append(args[:len(args)-1], "-json", rec)
		}
		got, stderr, ok := runCommand(t, args...)
		if !ok {
			t.Fatalf("replay -system heter-app (json %v) failed: %s", asJSON, stderr)
		}
		if got != want.String() {
			t.Errorf("replay -system heter-app (json %v) printed\n%s\nwant moca-sim's\n%s", asJSON, got, want.String())
		}
	}
}

// TestReplayRemoteRefusesLocalFlags: -skip and -loop position and repeat
// a local stream; a remote session replays the whole pushed file, so the
// combination exits non-zero before dialing (the address here has no
// server, and a dial error would name it).
func TestReplayRemoteRefusesLocalFlags(t *testing.T) {
	const fixture = "../../internal/trace/testdata/mcf-50k.v1"
	for _, flag := range [][]string{{"-skip", "10000"}, {"-loop"}} {
		args := append([]string{"replay", "-app", "mcf", "-remote", "127.0.0.1:1", "-session", "s"}, flag...)
		_, stderr, ok := runCommand(t, append(args, fixture)...)
		if ok || !strings.Contains(stderr, "local replays only") {
			t.Errorf("replay -remote %s: exited ok=%v, stderr %q; want a refusal before dialing", flag[0], ok, stderr)
		}
	}
}
