package main

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// daemonEnv marks a re-exec of the test binary that should run farosd
// instead of the tests.
const daemonEnv = "FAROSD_TEST_RUN_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// TestSIGTERMAfterListening signals farosd the moment it reports it is
// listening. The shutdown path must still run: exit status 0, the drain
// message, and the final stats report with the store section.
func TestSIGTERMAfterListening(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-workers", "1", "-store-dir", t.TempDir())
	cmd.Env = append(os.Environ(), daemonEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	watchdog := time.AfterFunc(30*time.Second, func() { _ = cmd.Process.Kill() })
	defer watchdog.Stop()

	var out strings.Builder
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		out.WriteString(sc.Text() + "\n")
		if strings.HasPrefix(sc.Text(), "farosd listening on ") {
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	rest, _ := io.ReadAll(stdout)
	out.Write(rest)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("farosd: %v\nstdout:\n%s\nstderr:\n%s", err, out.String(), stderr.String())
	}
	for _, want := range []string{
		"farosd: terminated, shutting down\n",
		"pipeline: 1 workers,",
		"store: 0 entries (0 bytes),",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestRemovedFlagsRejected: a flag farosd no longer has is a usage error
// (exit status 2), never silently ignored.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-cache-ttl", "30m"},
		{"-degraded-ttl", "10s"},
		{"-ledger", "4096"},
		{"-cache-lru"},
		{"-advertise", "http://a:7373"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
		cmd.Env = append(os.Environ(), daemonEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: err = %v, want exit status 2", args, err)
		}
		if !strings.Contains(stderr.String(), "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: stderr lacks the usage error:\n%s", args, stderr.String())
		}
	}
}
