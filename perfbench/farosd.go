package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"faros/internal/pipeline"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// node is one farosd subprocess. listening is closed once farosd has
// printed its "listening" line; done is closed once the process has
// exited, been reaped, and its output copied; waitErr is its exit status.
type node struct {
	id        string
	url       string
	cmd       *exec.Cmd
	log       *os.File
	listening chan struct{}
	done      chan struct{}
	waitErr   error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startNode spawns farosd listening on port, with dir as its working
// directory (relative store paths in extra land there); its output goes
// to dir/farosd.log. Standard output passes through a pipe so that
// waitReady can block on farosd's "listening" line instead of polling.
func startNode(bin, dir, id string, port int, extra ...string) (*node, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "farosd.log"))
	if err != nil {
		return nil, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	args := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Stdout = pw
	cmd.Stderr = logf
	err = cmd.Start()
	pw.Close()
	if err != nil {
		pr.Close()
		logf.Close()
		return nil, fmt.Errorf("start farosd: %w", err)
	}
	n := &node{id: id, url: fmt.Sprintf("http://127.0.0.1:%d", port), cmd: cmd, log: logf,
		listening: make(chan struct{}), done: make(chan struct{})}
	copied := make(chan struct{})
	go func() {
		defer close(copied)
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		seen := false
		for sc.Scan() {
			fmt.Fprintln(logf, sc.Text())
			if !seen && strings.HasPrefix(sc.Text(), "farosd listening on ") {
				seen = true
				close(n.listening)
			}
		}
		_, _ = io.Copy(logf, pr) // a line too long for the scanner
	}()
	go func() {
		n.waitErr = cmd.Wait()
		<-copied
		close(n.done)
	}()
	return n, nil
}

// stop asks farosd to drain and exit, killing it if it has not exited
// after the grace period, and waits until it has ended. farosd installs
// its SIGTERM handler only after it starts serving, so a node stopped
// right after start-up may end by the signal itself; that counts as a
// clean stop.
func (n *node) stop() error {
	defer n.log.Close()
	_ = n.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-n.done:
		var ee *exec.ExitError
		if errors.As(n.waitErr, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		return n.waitErr
	case <-time.After(20 * time.Second):
		_ = n.cmd.Process.Kill()
		<-n.done
		return fmt.Errorf("farosd %s did not drain within 20s; killed", n.id)
	}
}

// exited reports whether the process has already terminated (a bind
// failure, a bad flag).
func (n *node) exited() bool {
	select {
	case <-n.done:
		return true
	default:
		return false
	}
}

// cpuTicks is the process's user+system CPU time in clock ticks.
func (n *node) cpuTicks() (uint64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesized and may hold spaces; fields after
	// it are space-separated, utime and stime being the 12th and 13th.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat for pid %d", n.cmd.Process.Pid)
	}
	ut, err := strconv.ParseUint(fields[11], 10, 64)
	if err != nil {
		return 0, err
	}
	st, err := strconv.ParseUint(fields[12], 10, 64)
	if err != nil {
		return 0, err
	}
	return ut + st, nil
}

// peakRSSKB is the process's resident-set high-water mark (VmHWM).
func (n *node) peakRSSKB() (uint64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB"))
			return strconv.ParseUint(kb, 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", n.cmd.Process.Pid)
}

// readiness is the part of GET /readyz the benchmark waits on.
type readiness struct {
	Ready   bool `json:"ready"`
	PeersUp int  `json:"peers_up"`
}

// waitReady waits for farosd's "listening" line, then polls /readyz until
// it answers 200 with wantPeers peers up. A single node is up in a few
// milliseconds, so the poll starts at 50µs and doubles up to 2ms: the
// reading is not rounded to the poll interval, and a fleet's seconds of
// peer-probe convergence do not flood the nodes with polls.
func (n *node) waitReady(ctx context.Context, hc *http.Client, wantPeers int) error {
	select {
	case <-n.listening:
	case <-n.done:
		return fmt.Errorf("farosd %s exited during start-up (see its farosd.log)", n.id)
	case <-ctx.Done():
		return fmt.Errorf("farosd %s not listening: %w", n.id, ctx.Err())
	}
	for pause := 50 * time.Microsecond; ; pause = min(2*pause, 2*time.Millisecond) {
		if n.exited() {
			return fmt.Errorf("farosd %s exited during start-up (see its farosd.log)", n.id)
		}
		var rd readiness
		status, err := getJSON(ctx, hc, n.url+"/readyz", &rd)
		if err == nil && status == http.StatusOK && rd.Ready && rd.PeersUp == wantPeers {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("farosd %s not ready: %w", n.id, ctx.Err())
		case <-time.After(pause):
		}
	}
}

// stats scrapes GET /stats.
func (n *node) stats(ctx context.Context, hc *http.Client) (pipeline.Stats, error) {
	var st pipeline.Stats
	status, err := getJSON(ctx, hc, n.url+"/stats", &st)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET /stats: status %d", status)
	}
	return st, err
}

// get fetches url and returns the status and response body.
func get(ctx context.Context, hc *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return send(hc, req)
}

// getJSON fetches url and decodes a JSON body into v.
func getJSON(ctx context.Context, hc *http.Client, url string, v any) (int, error) {
	status, body, err := get(ctx, hc, url)
	if err != nil {
		return status, err
	}
	return status, json.Unmarshal(body, v)
}

// post sends body to url and returns the status and response body.
func post(ctx context.Context, hc *http.Client, url, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", contentType)
	return send(hc, req)
}

// send performs req and reads the whole response body.
func send(hc *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// fleet is the set of farosd nodes one workload runs against; nodes[0]
// is the entry node every client request goes to.
type fleet struct {
	nodes []*node
	dir   string
}

// startFleet spawns size farosd nodes under dir (with static peers when
// size > 1) and waits until every node is ready with all its peers up.
// It retries on a port collision, which shows up as an early exit.
func startFleet(ctx context.Context, hc *http.Client, bin, dir string, size int, extra []string) (*fleet, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		f, err := tryStartFleet(ctx, hc, bin, filepath.Join(dir, fmt.Sprintf("try%d", attempt)), size, extra)
		if err == nil {
			return f, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

func tryStartFleet(ctx context.Context, hc *http.Client, bin, dir string, size int, extra []string) (*fleet, error) {
	ids := []string{"a", "b"}[:size]
	ports := make([]int, size)
	var peers []string
	for i := range ports {
		p, err := freePort()
		if err != nil {
			return nil, err
		}
		ports[i] = p
		peers = append(peers, fmt.Sprintf("%s=http://127.0.0.1:%d", ids[i], p))
	}
	f := &fleet{dir: dir}
	for i, id := range ids {
		args := append([]string(nil), extra...)
		if size > 1 {
			args = append(args, "-node-id", id, "-peers", strings.Join(peers, ","))
		}
		n, err := startNode(bin, filepath.Join(dir, id), id, ports[i], args...)
		if err != nil {
			_ = f.stop()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
	}
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for _, n := range f.nodes {
		if err := n.waitReady(wctx, hc, size-1); err != nil {
			_ = f.stop()
			return nil, err
		}
	}
	return f, nil
}

// stop shuts every node down and removes the fleet's stores.
func (f *fleet) stop() error {
	var errs []error
	for _, n := range f.nodes {
		if err := n.stop(); err != nil {
			errs = append(errs, err)
		}
	}
	errs = append(errs, os.RemoveAll(f.dir))
	return errors.Join(errs...)
}

// settledStats scrapes /stats once every store write has landed. farosd
// answers a job before persisting its result, so right after set-up the
// last writes may still be in flight; with a result store, each completed
// or backfilled job is one entry once they land.
func (f *fleet) settledStats(ctx context.Context, hc *http.Client) ([]pipeline.Stats, error) {
	deadline := time.Now().Add(3 * time.Second)
	for {
		sts, err := f.stats(ctx, hc)
		if err != nil {
			return nil, err
		}
		settled := true
		for _, st := range sts {
			if st.StoreEnabled && uint64(st.Store.Entries) != st.JobsDone+st.Cluster.Backfills {
				settled = false
			}
		}
		if settled || time.Now().After(deadline) {
			return sts, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// cpuTicks sums CPU ticks over the fleet.
func (f *fleet) cpuTicks() (uint64, error) {
	var sum uint64
	for _, n := range f.nodes {
		t, err := n.cpuTicks()
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

// peakRSSMB sums VmHWM over the fleet, in MiB.
func (f *fleet) peakRSSMB() (float64, error) {
	var kb uint64
	for _, n := range f.nodes {
		v, err := n.peakRSSKB()
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}

// stats scrapes /stats from every node.
func (f *fleet) stats(ctx context.Context, hc *http.Client) ([]pipeline.Stats, error) {
	out := make([]pipeline.Stats, len(f.nodes))
	for i, n := range f.nodes {
		st, err := n.stats(ctx, hc)
		if err != nil {
			return nil, fmt.Errorf("node %s: %w", n.id, err)
		}
		out[i] = st
	}
	return out, nil
}
