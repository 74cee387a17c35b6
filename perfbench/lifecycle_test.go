package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// listenAddrs returns the loopback addresses a run reported serving on.
func listenAddrs(stderr string) []string {
	var addrs []string
	for _, line := range strings.Split(stderr, "\n") {
		if a, ok := strings.CutPrefix(line, "perfbench: listening on "); ok {
			addrs = append(addrs, strings.TrimSpace(a))
		}
	}
	return addrs
}

func assertRefused(t *testing.T, addrs []string) {
	t.Helper()
	if len(addrs) == 0 {
		t.Fatal("the run reported no listener")
	}
	for _, a := range addrs {
		if c, err := net.DialTimeout("tcp", a, time.Second); err == nil {
			c.Close()
			t.Errorf("%s still accepts connections after the run exited", a)
		}
	}
}

// processes returns the pids whose executable is bin or whose parent is
// parent.
func processes(t *testing.T, bin string, parent int) []int {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Skip("no /proc to inspect processes:", err)
	}
	var pids []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe")); err == nil && exe == bin {
			pids = append(pids, pid)
			continue
		}
		stat, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		// The parent pid is the second field after the parenthesised name.
		if i := bytes.LastIndexByte(stat, ')'); i >= 0 {
			f := strings.Fields(string(stat[i+1:]))
			if len(f) > 1 && f[1] == strconv.Itoa(parent) {
				pids = append(pids, pid)
			}
		}
	}
	return pids
}

// TestRunsLeaveNothingBehind runs the shortest workload briefly, then
// signals a second run mid-phase: both must exit, their listeners must
// refuse connections, and no process of theirs may remain.
func TestRunsLeaveNothingBehind(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark binary")
	}
	bin := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	dir := t.TempDir()

	var stdout, stderr bytes.Buffer
	brief := exec.Command(bin, "--workload", "flex-small", "--seed", "1", "--seconds", "1", "--trace", "0")
	brief.Dir, brief.Stdout, brief.Stderr = dir, &stdout, &stderr
	if err := brief.Run(); err != nil {
		t.Fatalf("brief run: %v\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Attempted == 0 || res.Failed != 0 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("brief run result %+v", res)
	}
	for _, m := range endToEnd {
		if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit || !(v.Value > 0) {
			t.Errorf("metric %s = %+v, want a positive value in %s", m.name, v, m.unit)
		}
	}
	assertRefused(t, listenAddrs(stderr.String()))

	stdout.Reset()
	long := exec.Command(bin, "--workload", "flex-small", "--seed", "2", "--seconds", "60", "--trace", "0")
	long.Dir, long.Stdout = dir, &stdout
	pipe, err := long.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := long.Start(); err != nil {
		t.Fatal(err)
	}
	var logged strings.Builder
	sc := bufio.NewScanner(pipe)
	for sc.Scan() {
		logged.WriteString(sc.Text() + "\n")
		if sc.Text() == "perfbench: phase closed-loop" {
			break
		}
	}
	if kids := processes(t, "", long.Process.Pid); len(kids) != 0 {
		t.Errorf("the run started child processes %v", kids)
	}
	if err := long.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(&logged, pipe); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	waited := make(chan error, 1)
	go func() { waited <- long.Wait() }()
	select {
	case err = <-waited:
	case <-ctx.Done():
		long.Process.Kill() //nolint:errcheck // the test fails either way
		t.Fatal("the signalled run did not exit")
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Errorf("signalled run exited with %v, want a non-zero code", err)
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Errorf("signalled run printed a result:\n%s", stdout.String())
	}
	assertRefused(t, listenAddrs(logged.String()))
	if left := processes(t, bin, long.Process.Pid); len(left) != 0 {
		t.Errorf("processes %v remain after both runs", left)
	}
}
