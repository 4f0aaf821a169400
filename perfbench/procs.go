package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one landlordd process the benchmark launched.
type daemon struct {
	name    string
	addr    string // host:port
	cfgPath string
	cmd     *exec.Cmd
	exited  chan struct{}
}

func (d *daemon) url() string { return "http://" + d.addr }

// procs owns every daemon of a run. The registry file records live
// daemons, so a later run can refuse to start while one of them is
// still serving, and kill removes them on exit, failure or signal.
type procs struct {
	bin      string
	dir      string // run directory: configs, state dirs, logs
	registry string
	maxprocs int

	mu   sync.Mutex
	live map[*daemon]bool
}

type registryEntry struct {
	PID  int    `json:"pid"`
	Addr string `json:"addr"`
}

// checkStale fails when a daemon recorded by an earlier run is still
// alive or its address still answers: its load would skew this run.
func checkStale(registry string) error {
	data, err := os.ReadFile(registry)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var entries []registryEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return fmt.Errorf("reading %s: %w", registry, err)
	}
	hc := &http.Client{Timeout: 200 * time.Millisecond}
	for _, e := range entries {
		if cmdline, err := os.ReadFile(fmt.Sprintf("/proc/%d/cmdline", e.PID)); err == nil &&
			strings.Contains(string(cmdline), "landlordd") {
			return fmt.Errorf("landlordd pid %d from an earlier run is still running (listed in %s); stop it first", e.PID, registry)
		}
		if resp, err := hc.Get("http://" + e.Addr + "/v1/healthz"); err == nil {
			resp.Body.Close()
			return fmt.Errorf("a daemon from an earlier run still serves %s (listed in %s); stop it first", e.Addr, registry)
		}
	}
	return os.Remove(registry)
}

func (p *procs) saveRegistryLocked() {
	var entries []registryEntry
	for d := range p.live {
		entries = append(entries, registryEntry{PID: d.cmd.Process.Pid, Addr: d.addr})
	}
	if len(entries) == 0 {
		os.Remove(p.registry)
		return
	}
	data, _ := json.Marshal(entries) // a slice of plain structs always encodes
	os.WriteFile(p.registry, data, 0o644)
}

// freeAddr picks a free loopback port below the kernel's ephemeral
// range. The daemon binds it only later, and a port from the ephemeral
// range could meanwhile become the source port of some outgoing
// connection; a killed daemon restarting on its port has the same
// window.
func freeAddr() (string, error) {
	low := 32768
	if data, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(data)); len(f) == 2 {
			if n, err := strconv.Atoi(f[0]); err == nil {
				low = n
			}
		}
	}
	const first = 10000
	if low-first < 1000 {
		return "", fmt.Errorf("ephemeral port range starts at %d, leaving no room below it", low)
	}
	for try := 0; try < 100; try++ {
		addr := "127.0.0.1:" + strconv.Itoa(first+rand.Intn(low-first))
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			continue
		}
		ln.Close()
		return addr, nil
	}
	return "", errors.New("no free loopback port below the ephemeral range")
}

// writeConfig copies an example config, overriding only the keys in
// set, and writes it to path.
func writeConfig(example, path string, set map[string]any) error {
	data, err := os.ReadFile(example)
	if err != nil {
		return err
	}
	var cfg map[string]any
	if err := json.Unmarshal(data, &cfg); err != nil {
		return fmt.Errorf("parsing %s: %w", example, err)
	}
	for k, v := range set {
		cfg[k] = v
	}
	out, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// start launches landlordd on cfgPath. The daemon dies with this
// process (Pdeathsig) even if it is killed outright.
func (p *procs) start(d *daemon) error {
	logf, err := os.OpenFile(filepath.Join(p.dir, d.name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(p.bin, "-config", d.cfgPath)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(p.maxprocs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("starting %s: %w", d.name, err)
	}
	d.cmd = cmd
	d.exited = make(chan struct{})
	go func() {
		cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	p.mu.Lock()
	p.live[d] = true
	p.saveRegistryLocked()
	p.mu.Unlock()
	return nil
}

// kill sends SIGKILL and waits for the process to end.
func (p *procs) kill(d *daemon) {
	p.mu.Lock()
	if !p.live[d] {
		p.mu.Unlock()
		return
	}
	delete(p.live, d)
	p.mu.Unlock()
	d.cmd.Process.Kill()
	<-d.exited
	p.mu.Lock()
	p.saveRegistryLocked()
	p.mu.Unlock()
}

func (p *procs) killAll() {
	p.mu.Lock()
	var all []*daemon
	for d := range p.live {
		all = append(all, d)
	}
	p.mu.Unlock()
	for _, d := range all {
		p.kill(d)
	}
}

// waitReady polls a daemon's /v1/readyz until it answers 200.
func waitReady(ctx context.Context, hc *http.Client, d *daemon) error {
	return pollReady(ctx, hc, d.name, d.url(), d.exited)
}

// pollReady polls url's /v1/readyz until it answers 200, failing early
// if exited closes.
func pollReady(ctx context.Context, hc *http.Client, name, url string, exited <-chan struct{}) error {
	for {
		select {
		case <-exited:
			return fmt.Errorf("%s exited before it was ready (see %s.log)", name, name)
		default:
		}
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/readyz", nil)
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: %w", name, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// vmHWM returns a process's peak resident set in bytes.
func vmHWM(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM line")
}
