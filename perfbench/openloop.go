package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/registry"
	"ccsdsldpc/internal/serve"
)

// Outcomes of one open-loop frame.
const (
	outPending     int8 = iota // never answered (connection error)
	outDelivered               // StatusOK, converged, bit-exact
	outUnconverged             // StatusOK, syndrome not satisfied: dropped by the channel
	outRefused                 // shed, deadline, internal or any non-OK status
	outWrong                   // converged to the wrong codeword: an output-check failure
)

// olPhase is one open-loop phase.
type olPhase struct {
	attempted, delivered, unconverged, refused, wrong, pending int

	latMs  []float64 // due time to response, delivered frames
	latOf  []float64 // the same by frame index, -1 where not delivered
	lateMs []float64 // due time to request bytes written, every frame
	wall   time.Duration
	cpu    time.Duration // this (generator) process's CPU time: what tracing costs
	bits   float64       // payload bits of delivered frames
	iters  int           // iterations over StatusOK responses
	okResp int

	oracle []oracleSample
}

// runOpenLoop drives frames[i mod len(frames)] at the due offsets in
// sched. One dispatcher sends each frame at its due time, without
// waiting for replies, on the connection with the fewest requests
// outstanding (a client's connection pool: a frame queues behind
// another only when every connection is busy); a reader per connection
// matches the in-order responses. Latency runs from the due time, so a
// stall is charged to every frame queued behind it. Due times count
// from start. The first oracleN frames' responses are kept for the
// fixed-point oracle.
func runOpenLoop(clients []*client, frames []*frame, sched []time.Duration, start time.Time, tr *tracer, rung string, oracleN int) (*olPhase, error) {
	n := len(sched)
	nc := len(clients)
	written := make([]time.Time, n)
	done := make([]time.Time, n)
	outcome := make([]int8, n)
	iters := make([]int, n)
	var oracle []oracleSample
	var omu sync.Mutex
	errs := make([]error, nc+1)
	outstanding := make([]atomic.Int32, nc)
	sent := make([]chan int, nc)
	for c := range sent {
		sent[c] = make(chan int, n) // room for every frame: the dispatcher never waits on a reader
	}

	due := func(i int) time.Time { return start.Add(sched[i]) }
	cpu0 := cpuTime()
	var wg sync.WaitGroup
	wg.Add(nc + 1)
	go func() {
		defer wg.Done()
		defer func() {
			for _, ch := range sent {
				close(ch)
			}
		}()
		for i := 0; i < n; i++ {
			if d := time.Until(due(i)); d > 0 {
				time.Sleep(d)
			}
			c := 0
			for k := 1; k < nc; k++ {
				if outstanding[k].Load() < outstanding[c].Load() {
					c = k
				}
			}
			outstanding[c].Add(1)
			if err := clients[c].send(frames[i%len(frames)]); err != nil {
				errs[nc] = fmt.Errorf("send frame %d: %w", i, err)
				return
			}
			written[i] = time.Now()
			sent[c] <- i
		}
	}()
	for c, cl := range clients {
		go func(c int, cl *client) {
			defer wg.Done()
			bits := map[registry.ID]*bitvec.Vector{}
			for i := range sent[c] {
				f := frames[i%len(frames)]
				b := bits[f.id]
				if b == nil {
					b = bitvec.New(f.built.Code.N)
					bits[f.id] = b
				}
				resp, err := cl.recv(b)
				done[i] = time.Now()
				outstanding[c].Add(-1)
				if err != nil {
					errs[c] = fmt.Errorf("response to frame %d: %w", i, err)
					for range sent[c] {
					}
					return
				}
				tr.add(spanRequest, rung, int64(i), -1, due(i), done[i], 1)
				switch {
				case resp.Status != serve.StatusOK:
					outcome[i] = outRefused
					continue
				case !resp.Converged:
					outcome[i] = outUnconverged
				case !b.Equal(f.cw):
					outcome[i] = outWrong
				default:
					outcome[i] = outDelivered
				}
				iters[i] = resp.Iterations
				if i < oracleN {
					omu.Lock()
					oracle = append(oracle, oracleSample{built: f.built, wire: f.wire, bits: b.Clone(), iters: resp.Iterations, converged: resp.Converged})
					omu.Unlock()
				}
			}
		}(c, cl)
	}
	wg.Wait()
	p := &olPhase{attempted: n, cpu: cpuTime() - cpu0, oracle: oracle, latOf: make([]float64, n)}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	last := start
	for i := 0; i < n; i++ {
		if done[i].After(last) {
			last = done[i]
		}
		if !written[i].IsZero() {
			p.lateMs = append(p.lateMs, ms(written[i].Sub(due(i))))
		}
		p.latOf[i] = -1
		switch outcome[i] {
		case outDelivered:
			p.delivered++
			p.latOf[i] = ms(done[i].Sub(due(i)))
			p.latMs = append(p.latMs, p.latOf[i])
			f := frames[i%len(frames)]
			p.bits += float64(f.built.PayloadBits())
		case outUnconverged:
			p.unconverged++
		case outRefused:
			p.refused++
		case outWrong:
			p.wrong++
		default:
			p.pending++
		}
		if outcome[i] != outRefused && outcome[i] != outPending {
			p.iters += iters[i]
			p.okResp++
		}
	}
	p.wall = last.Sub(start)
	return p, nil
}
