package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainArg, as the first argument, makes the test binary run the
// cecbench command itself on the remaining arguments, so exit codes and
// stderr of main are observable from a test.
const runMainArg = "run-cecbench-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMainArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestNonPositiveItersRejected(t *testing.T) {
	for _, iters := range []string{"0", "-2"} {
		cmd := exec.Command(os.Args[0], runMainArg,
			"-circuit", "s1196", "-iters", iters, "-workers", "1", "-out", "-")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("-iters %s: want exit 1, got %v\n%s", iters, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "bad iteration count") || strings.Contains(stderr.String(), "panic") {
			t.Fatalf("-iters %s: stderr %q", iters, stderr.String())
		}
	}
}
