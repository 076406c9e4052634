package cli

import (
	"compress/gzip"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// failingCommandEnv makes the test binary act as a command whose body
// fails, so the exit path can be observed from the parent test.
const failingCommandEnv = "CLI_TEST_FAILING_COMMAND"

func TestMain(m *testing.M) {
	if os.Getenv(failingCommandEnv) != "" {
		flags := Register(Profile)
		flags.Run(func() error { return errors.New("body failed") })
		os.Exit(0) // unreachable: Run exits 1 on a failing body
	}
	os.Exit(m.Run())
}

// TestFailingRunFlushesProfiles runs a failing command body with both
// profile flags set and checks that the process exits 1 with the error
// and that both profiles are complete gzip streams.
func TestFailingRunFlushesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	cmd := exec.Command(os.Args[0], "-cpuprofile", cpu, "-memprofile", mem)
	cmd.Env = append(os.Environ(), failingCommandEnv+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("failing command: err = %v, want exit status 1; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "body failed") {
		t.Errorf("output %q does not report the body's error", out)
	}
	for _, path := range []string{cpu, mem} {
		f, err := os.Open(path)
		if err != nil {
			t.Errorf("profile not written: %v", err)
			continue
		}
		zr, err := gzip.NewReader(f)
		if err == nil {
			_, err = io.Copy(io.Discard, zr)
		}
		if err != nil {
			t.Errorf("%s is not a complete gzip stream: %v", filepath.Base(path), err)
		}
		f.Close()
	}
}

func TestBase(t *testing.T) {
	for id, want := range map[string]string{
		"Fig 7.11":         "fig_7_11",
		"Ablation A":       "ablation_a",
		"Ext V-dyn":        "ext_v-dyn",
		"Serve window p99": "serve_window_p99",
	} {
		if got := Base(id); got != want {
			t.Errorf("Base(%q) = %q, want %q", id, got, want)
		}
	}
}
