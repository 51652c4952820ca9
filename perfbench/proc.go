package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// serverProc is one running server process.
type serverProc struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Reader
	addr  string
	setup time.Duration // exec to listening
}

// live holds every started server until it has been waited for, so the
// watchdog and error paths can stop them all.
var live struct {
	sync.Mutex
	procs map[*exec.Cmd]bool
}

func track(cmd *exec.Cmd) {
	live.Lock()
	if live.procs == nil {
		live.procs = make(map[*exec.Cmd]bool)
	}
	live.procs[cmd] = true
	live.Unlock()
}

// reap waits for cmd to exit and forgets it.
func reap(cmd *exec.Cmd) error {
	err := cmd.Wait()
	live.Lock()
	delete(live.procs, cmd)
	live.Unlock()
	return err
}

// startServer execs a server for w. With recs it hands them over on
// stdin; without, a durable server recovers from dir. tmp becomes the
// server's TMPDIR (the paged kinds keep their page files there).
func startServer(w *workload, recs []uint64, dir, tmp string, traced bool) (*serverProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"server", "-kind", w.Kind, "-shards", strconv.Itoa(numShards),
		"-records", strconv.Itoa(len(recs))}
	if dir != "" {
		args = append(args, "-dir", dir)
	}
	if traced {
		args = append(args, "-traced")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, in: in, out: bufio.NewReader(outPipe)}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	track(cmd)

	bw := bufio.NewWriterSize(in, 1<<20)
	var buf [recordBytes]byte
	for _, k := range recs {
		binary.LittleEndian.PutUint64(buf[:8], k)
		binary.LittleEndian.PutUint64(buf[8:], payload(k))
		if _, err := bw.Write(buf[:]); err != nil {
			p.kill()
			return nil, fmt.Errorf("hand records to server: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		p.kill()
		return nil, fmt.Errorf("hand records to server: %w", err)
	}
	line, err := p.out.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "listening ") {
		p.kill()
		return nil, fmt.Errorf("server did not start (%q): %v", line, err)
	}
	p.setup = time.Since(start)
	p.addr = strings.TrimSpace(strings.TrimPrefix(line, "listening "))
	return p, nil
}

// stats asks the server for its counters; gc forces a collection first.
func (p *serverProc) stats(gc bool) (serverStats, error) {
	var st serverStats
	cmd := "stats\n"
	if gc {
		cmd = "heap\n"
	}
	if _, err := io.WriteString(p.in, cmd); err != nil {
		return st, fmt.Errorf("server stats: %w", err)
	}
	line, err := p.out.ReadBytes('\n')
	if err != nil {
		return st, fmt.Errorf("server stats: %w", err)
	}
	return st, json.Unmarshal(line, &st)
}

// kill sends SIGKILL and waits for the process to end.
func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	p.wait()
}

// quit shuts the server down gracefully and waits for it.
func (p *serverProc) quit() error {
	io.WriteString(p.in, "quit\n")
	p.in.Close()
	return p.wait()
}

func (p *serverProc) wait() error { return reap(p.cmd) }

// killAll stops every process still running and waits for each.
func killAll() {
	live.Lock()
	cmds := make([]*exec.Cmd, 0, len(live.procs))
	for cmd := range live.procs {
		cmds = append(cmds, cmd)
	}
	live.Unlock()
	for _, cmd := range cmds {
		cmd.Process.Kill()
		reap(cmd)
	}
}

// procCounters are a process's cumulative I/O and CPU counters.
type procCounters struct {
	rchar, wchar int64
	cpuTicks     int64
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times.
const clockTicks = 100

func (p *serverProc) counters() (procCounters, error) {
	var pc procCounters
	pid := strconv.Itoa(p.cmd.Process.Pid)
	io, err := os.ReadFile(filepath.Join("/proc", pid, "io"))
	if err != nil {
		return pc, err
	}
	for _, line := range strings.Split(string(io), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		n, _ := strconv.ParseInt(f[1], 10, 64)
		switch f[0] {
		case "rchar:":
			pc.rchar = n
		case "wchar:":
			pc.wchar = n
		}
	}
	stat, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return pc, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return pc, fmt.Errorf("short /proc/%s/stat", pid)
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	pc.cpuTicks = utime + stime
	return pc, nil
}

// hostCPU is the machine's cumulative CPU time in USER_HZ ticks: all of
// it, and the part the hypervisor ran other guests in (steal).
type hostCPU struct{ total, steal int64 }

func readHostCPU() (hostCPU, error) {
	var h hostCPU
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return h, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return h, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		if i < 8 { // user..steal; guest time is already in user
			h.total += n
		}
		if i == 7 {
			h.steal = n
		}
	}
	return h, nil
}
