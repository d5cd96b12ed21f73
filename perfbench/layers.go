package main

import (
	"runtime"

	"ccsdsldpc/internal/fleet"
	"ccsdsldpc/internal/registry"
	"ccsdsldpc/internal/serve"
)

// serveTotals are the serve.Metrics counters the layer metrics read.
type serveTotals struct{ decoded, batches, shed, deadline int64 }

func serveCounts(snaps []serve.Snapshot) serveTotals {
	var t serveTotals
	for _, s := range snaps {
		t.decoded += s.FramesDecoded
		t.batches += s.Batches
		t.shed += s.FramesShed
		t.deadline += s.FramesDeadline
	}
	return t
}

func (a serveTotals) sub(b serveTotals) serveTotals {
	return serveTotals{a.decoded - b.decoded, a.batches - b.batches, a.shed - b.shed, a.deadline - b.deadline}
}

// muxServe returns the serve snapshots of every built pool behind the
// muxes.
func muxServe(ms []registry.MuxSnapshot) []serve.Snapshot {
	var out []serve.Snapshot
	for _, m := range ms {
		for _, c := range m.Codes {
			if c.Built {
				out = append(out, c.Serve)
			}
		}
	}
	return out
}

// shareMax is the largest share of the frames one backend carried
// between two router snapshots.
func shareMax(after, before fleet.Snapshot) float64 {
	prev := map[string]int64{}
	for _, b := range before.Backends {
		prev[b.Name] = b.Frames
	}
	var tot, top int64
	for _, b := range after.Backends {
		n := b.Frames - prev[b.Name]
		tot += n
		top = max(top, n)
	}
	if tot == 0 {
		return 0
	}
	return float64(top) / float64(tot)
}

// layerIn gathers what the traced run measured; metrics turns it into
// the per-layer metrics.
type layerIn struct {
	tr          *tracer
	lad         *ladderOut
	stationRung string     // rung of the station spans: the main phase or the ladder's station rung
	station     *passStats // the station passes of that rung
	serve       serveTotals

	v2Frames, badFrames                  int64
	requeues, hedges, budgetDenied, lost int64
	shareMax                             float64

	itersPerFrame, p50Overhead, cpuOverhead float64
}

// addMux adds the routing counters between two sets of mux snapshots
// (before may be nil: counted from zero).
func (in *layerIn) addMux(after, before []registry.MuxSnapshot) {
	for _, m := range after {
		in.v2Frames += m.V2Frames
		in.badFrames += m.BadFrames
	}
	for _, m := range before {
		in.v2Frames -= m.V2Frames
		in.badFrames -= m.BadFrames
	}
}

func (in *layerIn) addRouter(after, before fleet.Snapshot) {
	in.requeues += after.Requeues - before.Requeues
	in.hedges += after.Hedges - before.Hedges
	in.budgetDenied += after.BudgetDenied - before.BudgetDenied
	in.lost += after.FramesLost - before.FramesLost
}

func (in *layerIn) metrics() map[string]float64 {
	tr := in.tr
	lone := median(tr.durations(spanBatch, rungBatchLone))
	serveLone := median(tr.durations(spanServe, rungServe))
	var expandUs []float64
	for _, v := range tr.durations(spanExpand, rungServe) {
		expandUs = append(expandUs, v*1e3)
	}
	st := in.station
	self := tr.selfTimes(in.stationRung)
	perFrame := func(v float64) float64 { return v / float64(max(st.decodeFrames, 1)) }
	m := map[string]float64{
		"batch.lone_call_ms":      lone,
		"batch.full_call_ms":      median(tr.durations(spanBatch, rungBatchFull)),
		"batch.ns_per_frame_iter": in.lad.nsPerFrameIter,
		"batch.iters_per_frame":   in.itersPerFrame,

		"serve.lone_ms":  serveLone,
		"serve.sched_ms": tr.pairedDiff(spanServe, rungServe, spanBatch, rungBatchLone),
		"serve.shed":     float64(in.serve.shed),
		"serve.deadline": float64(in.serve.deadline),

		"registry.expand_us":  median(expandUs),
		"registry.mux_ms":     tr.pairedDiff(spanRequest, rungMux, spanServe, rungServe),
		"registry.v2_frames":  float64(in.v2Frames),
		"registry.bad_frames": float64(in.badFrames),

		"fleet.hop_ms":            tr.pairedDiff(spanRequest, rungFleet, spanRequest, rungMux),
		"fleet.requeues":          float64(in.requeues),
		"fleet.hedges":            float64(in.hedges),
		"fleet.budget_denied":     float64(in.budgetDenied),
		"fleet.lost":              float64(in.lost),
		"fleet.backend_share_max": in.shareMax,

		"station.sync_ms_per_frame":   perFrame(ms(self[spanIngest])),
		"station.decode_ms_per_frame": perFrame(ms(self[spanDecode])),
		"station.group_frames":        float64(st.decodeFrames) / float64(max(st.decodeCalls, 1)),
		"station.cpu_busy_frac":       st.cpu.Seconds() / (st.wall.Seconds() * float64(runtime.GOMAXPROCS(0))),
		"station.reject_frac":         float64(st.snap.CadusRejected) / float64(max(st.snap.FramesAligned, 1)),
		"station.unlocks":             float64(st.snap.Unlocks),
		"station.flywheel":            float64(st.snap.FramesFlywheel),

		"trace.p50_overhead_ms":           in.p50Overhead,
		"trace.cpu_overhead_ms_per_frame": in.cpuOverhead,
	}
	if in.serve.batches > 0 {
		m["serve.batch_fill"] = float64(in.serve.decoded) / float64(in.serve.batches)
	} else {
		m["serve.batch_fill"] = 0
	}
	return m
}
