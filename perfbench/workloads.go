package main

import (
	"fmt"
	"math"
	"time"

	"ccsdsldpc/internal/fleet"
	"ccsdsldpc/internal/registry"
	"ccsdsldpc/internal/serve"
	"ccsdsldpc/internal/station"
)

// wireSpec is an open-loop workload over the wire protocol.
type wireSpec struct {
	ids      []registry.ID
	backends int
	routed   bool
	conns    int
	rate     float64 // mean Poisson arrival rate, frames/s
	ebn0     float64
	mixV1    bool // alternate v1 and v2 framing on the default code
}

var wireSpecs = map[string]wireSpec{
	"serve-c2": {ids: []registry.ID{registry.C2}, backends: 1, conns: 2, rate: 50, ebn0: 4.2},
	"fleet-mixed": {
		ids:      []registry.ID{registry.C2, registry.C2Short, registry.DS12, registry.DS23, registry.DS45},
		backends: 2, routed: true, conns: 1, rate: 40, ebn0: 4.2, mixV1: true,
	},
}

func (w wireSpec) start() (*wireStack, error) {
	return startWireStack(w.ids, w.backends, w.routed)
}

func (w wireSpec) params() map[string]any {
	return map[string]any{
		"loop": "open", "arrivals": "poisson", "rate_fps": w.rate, "connections": w.conns,
		"backends": w.backends, "routed": w.routed, "codes": len(w.ids), "ebn0_db": w.ebn0,
		"warmup_s": warmup.Seconds(),
	}
}

const (
	// warmup is the open-loop traffic sent, unmeasured, before the
	// measured phase.
	warmup = time.Second
	// maxLateShare bounds the generator's p99 lateness as a share of
	// p50_ms; a run beyond it measured its own generator, not the
	// system, and is refused.
	maxLateShare = 1.0
	// windows is how many equal windows of the measured phase the
	// open-loop p50 and CPU per frame are medians over.
	windows = 6
	// traceDir is where traced runs write their spans, relative to the
	// working directory (the repository root under run.py).
	traceDir = ".bench_build/traces"
)

// runWire runs serve-c2 or fleet-mixed: the system in a serving child
// process (remote.go), the generator here.
func runWire(o options, spec wireSpec) (*result, error) {
	rem, err := startRemote(o.workload)
	if err != nil {
		return nil, err
	}
	var clients []*client
	stopped := false
	stop := func() error {
		for _, c := range clients {
			c.conn.Close()
		}
		stopped = true
		return rem.stop()
	}
	defer func() {
		if !stopped {
			stop()
		}
	}()
	for i := 0; i < spec.conns; i++ {
		c, err := dial(rem.hello.Addr)
		if err != nil {
			return nil, err
		}
		clients = append(clients, c)
	}
	reg := registry.Default()
	codes := make([]*registry.Built, len(spec.ids))
	for i, id := range spec.ids {
		e, _ := reg.Get(id)
		if codes[i], err = e.Build(); err != nil {
			return nil, err
		}
	}
	// One distinct frame per measured arrival, so the slowest-decoding
	// frames behind the latency tail are many draws, not a few repeats.
	frames, err := genFrames(reg, codes, spec.ids, int(math.Round(spec.rate*o.seconds.Seconds())), spec.ebn0, o.seed, spec.mixV1)
	if err != nil {
		return nil, err
	}
	if _, err := runOpenLoop(clients, frames, poissonSchedule(spec.rate, warmup, o.seed+1), soon(), nil, rungMain, 0); err != nil {
		return nil, err
	}
	res := &result{correct: true, report: map[string]any{"params": spec.params()}}

	if o.trace {
		half := o.seconds / 2
		un, err := runOpenLoop(clients, frames, poissonSchedule(spec.rate, half, o.seed), soon(), nil, rungMain, 0)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		before, err := rem.call("stats")
		if err != nil {
			return nil, err
		}
		tp, err := runOpenLoop(clients, frames, poissonSchedule(spec.rate, half, o.seed+2), soon(), tr, rungMain, 0)
		if err != nil {
			return nil, err
		}
		after, err := rem.call("stats")
		if err != nil {
			return nil, err
		}
		if err := stop(); err != nil {
			return nil, err
		}
		lad, err := runLadder(tr, frames[:oracleN], func(ls *wireStack) (*passStats, error) {
			srv, b, err := ls.backs[0].mux.Pools().Get(registry.C2)
			if err != nil {
				return nil, err
			}
			stream, err := downlinkStream(b, oracleN, o.seed)
			if err != nil {
				return nil, err
			}
			return stationPass(b, station.PoolDecode(b, srv, srv.Config().Params.Format), stream, tr, rungStation, nil)
		})
		if err != nil {
			return nil, err
		}
		in := layerIn{
			tr: tr, lad: lad, stationRung: rungStation, station: lad.station,
			serve:         serveCounts(muxServe(after.Mux)).sub(serveCounts(muxServe(before.Mux))),
			itersPerFrame: float64(tp.iters) / float64(max(tp.okResp, 1)),
			p50Overhead:   median(tp.latMs) - median(un.latMs),
			cpuOverhead:   ms(tp.cpu)/float64(tp.attempted) - ms(un.cpu)/float64(un.attempted),
		}
		in.addMux(after.Mux, before.Mux)
		in.addMux(lad.mux, nil)
		in.addRouter(lad.router, fleet.Snapshot{})
		in.addRouter(after.Router, before.Router)
		in.shareMax = shareMax(lad.router, fleet.Snapshot{})
		if spec.routed {
			in.shareMax = shareMax(after.Router, before.Router)
		}
		res.metrics = in.metrics()
		res.attempted = tp.attempted
		res.failed = tp.refused + tp.pending + tp.wrong
		res.correct = tp.wrong == 0
		if path, err := tr.write(traceDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)); err == nil {
			res.report["trace_file"] = path
		}
		res.report["iters_per_frame"] = in.itersPerFrame
		res.report["lateness_ms"] = lateness(tp)
		return res, nil
	}

	// The measured phase, with the serving child's CPU time sampled at
	// every window boundary.
	sched := poissonSchedule(spec.rate, o.seconds, o.seed)
	win := o.seconds / windows
	start := soon()
	cpuAt := make([]int64, windows+1)
	sampled := make(chan error, 1)
	go func() {
		for k := range cpuAt {
			time.Sleep(time.Until(start.Add(time.Duration(k) * win)))
			st, err := rem.call("stats")
			if err != nil {
				sampled <- err
				return
			}
			cpuAt[k] = st.CPUNs
		}
		sampled <- nil
	}()
	ph, err := runOpenLoop(clients, frames, sched, start, nil, rungMain, oracleN)
	if serr := <-sampled; err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	mem, err := rem.call("mem")
	if err != nil {
		return nil, err
	}
	if err := stop(); err != nil {
		return nil, err
	}
	if err := checkOracle(ph.oracle); err != nil {
		return nil, err
	}
	samples, err := setupSamples(o.workload, rem.hello.SetupS)
	if err != nil {
		return nil, err
	}

	// Per-window p50 and CPU per frame, by due time.
	var p50s, cpus []float64
	for w := 0; w < windows; w++ {
		var lat []float64
		n := 0
		for i, d := range sched {
			if d >= time.Duration(w)*win && d < time.Duration(w+1)*win {
				n++
				if ph.latOf[i] >= 0 {
					lat = append(lat, ph.latOf[i])
				}
			}
		}
		p50s = append(p50s, median(lat))
		cpus = append(cpus, float64(cpuAt[w+1]-cpuAt[w])/1e6/float64(max(n, 1)))
	}
	late := lateness(ph)
	res.report["lateness_ms"] = late
	if p50 := median(ph.latMs); late["p99"] > maxLateShare*p50 {
		return nil, fmt.Errorf("run invalid: generator p99 lateness %.3f ms exceeds %.0f%% of p50 %.3f ms", late["p99"], 100*maxLateShare, p50)
	}
	res.metrics = map[string]float64{
		"setup_s":          median(samples),
		"mem_mb":           mem.HeapMB,
		"info_mbps":        ph.bits / ph.wall.Seconds() / 1e6,
		"p50_ms":           median(p50s),
		"p99_ms":           quantile(ph.latMs, 0.99),
		"delivered_frac":   float64(ph.delivered) / float64(ph.attempted),
		"cpu_ms_per_frame": median(cpus),
	}
	res.report["windows"] = map[string]any{"p50_ms": p50s, "cpu_ms_per_frame": cpus}
	res.attempted = ph.attempted
	res.failed = ph.refused + ph.pending + ph.wrong
	res.correct = ph.wrong == 0
	res.report["setup_samples_s"] = samples
	res.report["iters_per_frame"] = float64(ph.iters) / float64(max(ph.okResp, 1))
	res.report["frames"] = map[string]int{
		"attempted": ph.attempted, "delivered": ph.delivered, "unconverged": ph.unconverged,
		"refused": ph.refused, "wrong": ph.wrong, "unanswered": ph.pending,
	}
	return res, nil
}

func lateness(p *olPhase) map[string]float64 {
	return map[string]float64{"p50": median(p.lateMs), "p99": quantile(p.lateMs, 0.99), "limit_share_of_p50": maxLateShare}
}

// runDownlink runs downlink-c2: whole passes of the seeded stream, one
// after another, until the measured time reaches the run length.
func runDownlink(o options) (*result, error) {
	base := liveHeap()
	s, setup, err := timeSetup(startPoolStack)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			s.close()
		}
	}()
	stream, err := downlinkStream(s.built, dlFrames, o.seed)
	if err != nil {
		return nil, err
	}
	res := &result{correct: true, report: map[string]any{"params": map[string]any{
		"loop": "closed", "frames_per_pass": dlFrames, "chunk_samples": dlChunk, "bits_per_symbol": 2,
		"ebn0_db": dlEbN0, "dip_min_ebn0_db": dlDipdB, "slips": 1, "flips": 1,
	}}}
	// passes runs whole passes until their measured time reaches d.
	passes := func(d time.Duration, tr *tracer, oracle *[]oracleSample) (*passStats, []*passStats, error) {
		var tot passStats
		var each []*passStats
		for len(each) == 0 || tot.wall < d {
			ps, err := stationPass(s.built, s.decode, stream, tr, rungMain, oracle)
			if err != nil {
				return nil, nil, err
			}
			tot.add(ps)
			each = append(each, ps)
		}
		return &tot, each, nil
	}

	if o.trace {
		un, _, err := passes(o.seconds/2, nil, nil)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		var captured []oracleSample
		before := s.srv.Metrics().Snapshot()
		tp, _, err := passes(o.seconds/2, tr, &captured)
		if err != nil {
			return nil, err
		}
		after := s.srv.Metrics().Snapshot()
		frames := make([]*frame, len(captured))
		for i, c := range captured {
			frames[i] = &frame{id: registry.C2, built: s.built, wire: c.wire}
		}
		lad, err := runLadder(tr, frames, nil)
		if err != nil {
			return nil, err
		}
		in := layerIn{
			tr: tr, lad: lad, stationRung: rungMain, station: tp,
			serve:         serveCounts([]serve.Snapshot{after}).sub(serveCounts([]serve.Snapshot{before})),
			itersPerFrame: float64(tp.iters) / float64(max(tp.decodeFrames, 1)),
			p50Overhead:   median(tp.latMs) - median(un.latMs),
			cpuOverhead:   ms(tp.cpu)/float64(tp.frames) - ms(un.cpu)/float64(un.frames),
		}
		in.addMux(lad.mux, nil)
		in.addRouter(lad.router, fleet.Snapshot{})
		in.shareMax = shareMax(lad.router, fleet.Snapshot{})
		res.metrics = in.metrics()
		res.attempted, res.failed = tp.frames, tp.failed
		if path, err := tr.write(traceDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)); err == nil {
			res.report["trace_file"] = path
		}
		res.report["iters_per_frame"] = in.itersPerFrame
		return res, nil
	}

	var captured []oracleSample
	tot, each, err := passes(o.seconds, nil, &captured)
	if err != nil {
		return nil, err
	}
	if err := checkOracle(captured); err != nil {
		return nil, err
	}
	// Every pass replays the same stream, so per-pass figures compare
	// like with like; each metric is their median.
	var mbps, p50s, p99s, cpus []float64
	for _, ps := range each {
		mbps = append(mbps, float64(ps.delivered)*float64(s.built.PayloadBits())/ps.wall.Seconds()/1e6)
		p50s = append(p50s, median(ps.latMs))
		p99s = append(p99s, quantile(ps.latMs, 0.99))
		cpus = append(cpus, ms(ps.cpu)/float64(ps.frames))
	}
	captured, stream, each, tot.latMs = nil, nil, nil, nil
	mem := float64(int64(liveHeap())-int64(base)) / (1 << 20)
	s.close()
	closed = true
	samples, err := setupSamples(o.workload, setup)
	if err != nil {
		return nil, err
	}
	res.metrics = map[string]float64{
		"setup_s":          median(samples),
		"mem_mb":           mem,
		"info_mbps":        median(mbps),
		"p50_ms":           median(p50s),
		"p99_ms":           median(p99s),
		"delivered_frac":   float64(tot.delivered) / float64(tot.frames),
		"cpu_ms_per_frame": median(cpus),
	}
	res.report["passes"] = map[string]any{"info_mbps": mbps, "p50_ms": p50s, "p99_ms": p99s, "cpu_ms_per_frame": cpus}
	res.attempted, res.failed = tot.frames, tot.failed
	res.report["setup_samples_s"] = samples
	res.report["iters_per_frame"] = float64(tot.iters) / float64(max(tot.decodeFrames, 1))
	res.report["frames"] = map[string]int{"attempted": tot.frames, "delivered": tot.delivered, "failed": tot.failed}
	return res, nil
}

func (a *passStats) add(b *passStats) {
	a.frames += b.frames
	a.delivered += b.delivered
	a.failed += b.failed
	a.latMs = append(a.latMs, b.latMs...)
	a.wall += b.wall
	a.cpu += b.cpu
	a.decodeCalls += b.decodeCalls
	a.decodeFrames += b.decodeFrames
	a.iters += b.iters
	a.snap.FramesAligned += b.snap.FramesAligned
	a.snap.FramesFlywheel += b.snap.FramesFlywheel
	a.snap.CadusRejected += b.snap.CadusRejected
	a.snap.Unlocks += b.snap.Unlocks
}
