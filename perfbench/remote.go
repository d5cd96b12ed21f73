package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"

	"ccsdsldpc/internal/fleet"
	"ccsdsldpc/internal/registry"
)

// The open-loop workloads run their system under test in a child
// process of the benchmark binary (-serve). In one process the load
// generator's timers and readers would wait for a Go processor held by
// a decoder for a whole decode call, and that wait would be measured as
// latency; across processes the kernel schedules the two sides. The
// child also makes mem_mb and cpu_ms_per_frame the server's alone.
//
// The child builds its stack, prints a hello line, then answers one
// command per stdin line with one JSON line: "stats" (CPU time and
// counters) or "mem" (live heap growth since before set-up). It tears
// the stack down and exits when stdin closes.

type serverHello struct {
	Addr   string  `json:"addr"`
	SetupS float64 `json:"setup_s"`
}

type serverStats struct {
	CPUNs  int64                  `json:"cpu_ns"`
	HeapMB float64                `json:"heap_mb"`
	Mux    []registry.MuxSnapshot `json:"mux"`
	Router fleet.Snapshot         `json:"router"`
}

// serveMode is the child's side.
func serveMode(spec wireSpec) error {
	base := liveHeap()
	s, secs, err := timeSetup(spec.start)
	if err != nil {
		return err
	}
	defer s.close()
	emit(serverHello{Addr: s.front(), SetupS: secs})
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		switch cmd := sc.Text(); cmd {
		case "stats":
			emit(serverStats{CPUNs: int64(cpuTime()), Mux: s.muxSnapshots(), Router: s.routerSnap()})
		case "mem":
			emit(serverStats{HeapMB: float64(int64(liveHeap())-int64(base)) / (1 << 20)})
		default:
			return fmt.Errorf("unknown command %q", cmd)
		}
	}
	return sc.Err()
}

// remote is the parent's handle on a serving child.
type remote struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Reader
	hello serverHello
}

func startRemote(workload string) (*remote, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-serve", "-workload", workload)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	r := &remote{cmd: cmd, in: in, out: bufio.NewReader(out)}
	if err := r.read(&r.hello); err != nil {
		r.stop()
		return nil, fmt.Errorf("serving child: %w", err)
	}
	return r, nil
}

func (r *remote) read(v any) error {
	line, err := r.out.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

// call sends one command and decodes its answer.
func (r *remote) call(cmd string) (*serverStats, error) {
	if _, err := fmt.Fprintln(r.in, cmd); err != nil {
		return nil, err
	}
	var st serverStats
	if err := r.read(&st); err != nil {
		return nil, fmt.Errorf("serving child %s: %w", cmd, err)
	}
	return &st, nil
}

// stop closes the child's stdin and waits for it to exit, killing it if
// it has not within ten seconds. The generator's connections must be
// closed first: the child waits for them while tearing down.
func (r *remote) stop() error {
	r.in.Close()
	done := make(chan error, 1)
	go func() { done <- r.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		r.cmd.Process.Kill()
		<-done
		return fmt.Errorf("serving child did not exit; killed")
	}
}
