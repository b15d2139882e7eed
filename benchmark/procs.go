package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/kvstore"
)

// child is one kvserver or kvproxy process. Every child is registered
// in live until it has been waited for, so any exit path can reap it.
type child struct {
	name   string
	cmd    *exec.Cmd
	stdout bytes.Buffer
	stderr bytes.Buffer
	exited chan struct{} // closed once Wait returned
	err    error         // Wait's result, valid after exited
}

var (
	liveMu  sync.Mutex
	live    = map[*child]struct{}{}
	tmpDirs = map[string]struct{}{}
)

func startChild(name, bin string, args ...string) (*child, error) {
	c := &child{name: name, cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	c.cmd.Stdout = &c.stdout
	c.cmd.Stderr = &c.stderr
	liveMu.Lock()
	defer liveMu.Unlock()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	live[c] = struct{}{}
	go func() {
		c.err = c.cmd.Wait()
		liveMu.Lock()
		delete(live, c)
		liveMu.Unlock()
		close(c.exited)
	}()
	return c, nil
}

func (c *child) running() bool {
	select {
	case <-c.exited:
		return false
	default:
		return true
	}
}

// stop sends SIGINT and waits for the child's own graceful exit; a
// child that outlives the timeout is killed and reported.
func (c *child) stop(timeout time.Duration) error {
	if c.running() {
		_ = c.cmd.Process.Signal(syscall.SIGINT) // a child that just exited needs no signal
	}
	select {
	case <-c.exited:
	case <-time.After(timeout):
		_ = c.cmd.Process.Kill() // same: losing the race to its exit is fine
		<-c.exited
		return fmt.Errorf("%s did not exit within %v of SIGINT; killed", c.name, timeout)
	}
	if c.err != nil {
		return fmt.Errorf("%s: %w; stderr: %s", c.name, c.err, tail(c.stderr.String()))
	}
	return nil
}

func tail(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 400 {
		s = "…" + s[len(s)-400:]
	}
	return s
}

// cpu reads the child's user+system CPU time, all threads, from its
// process CPU-time clock: the same quantity as utime+stime in
// /proc/<pid>/stat, in nanoseconds instead of 10 ms ticks.
func (c *child) cpu() time.Duration {
	// MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED) of <linux/posix-timers.h>
	clock := int32(^uint32(c.cmd.Process.Pid)<<3 | 2)
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// reapAll ends every child still alive — SIGTERM, then SIGKILL for
// any that has not exited 5 s later — waits for each, and removes the
// temp directories. The normal path has already stopped them all.
func reapAll() {
	liveMu.Lock()
	var cs []*child
	for c := range live {
		cs = append(cs, c)
	}
	dirs := tmpDirs
	tmpDirs = map[string]struct{}{}
	liveMu.Unlock()
	for _, c := range cs {
		_ = c.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	}
	grace := time.After(5 * time.Second)
	for _, c := range cs {
		select {
		case <-c.exited:
		case <-grace:
			_ = c.cmd.Process.Kill()
			<-c.exited
		}
	}
	for d := range dirs {
		os.RemoveAll(d)
	}
}

// buildBinaries compiles the named cmd/ packages into a fresh temp
// directory under <root>/.bench_build and returns it.
func buildBinaries(root string, cmds ...string) (string, error) {
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(base, "bin-")
	if err != nil {
		return "", err
	}
	liveMu.Lock()
	tmpDirs[dir] = struct{}{}
	liveMu.Unlock()
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, c := range cmds {
		args = append(args, "./cmd/"+c)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build: %w: %s", err, tail(string(out)))
	}
	return dir, nil
}

func removeTemp(dir string) {
	liveMu.Lock()
	delete(tmpDirs, dir)
	liveMu.Unlock()
	os.RemoveAll(dir)
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

var clientOpts = []kvstore.Option{
	kvstore.WithDialTimeout(time.Second),
	kvstore.WithReadTimeout(30 * time.Second),
	kvstore.WithWriteTimeout(30 * time.Second),
}

// dialReady is the readiness probe: dial until c's listener answers a
// STATS round trip, giving up if c dies or 15 s pass.
func dialReady(c *child, addr string) (*kvstore.Client, error) {
	deadline := time.Now().Add(15 * time.Second)
	for {
		if !c.running() {
			return nil, fmt.Errorf("%s exited during start-up: %v; stderr: %s", c.name, c.err, tail(c.stderr.String()))
		}
		cl, err := kvstore.Dial(addr, clientOpts...)
		if err == nil {
			if _, err = cl.Stats(context.Background()); err == nil {
				return cl, nil
			}
			cl.Close()
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s not ready on %s after 15s: %v", c.name, addr, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
