package main

import (
	"fmt"
	"time"

	"ccsdsldpc/internal/batch"
	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/fleet"
	"ccsdsldpc/internal/ldpc"
	"ccsdsldpc/internal/registry"
	"ccsdsldpc/internal/serve"
)

// Ladder rungs. Each replays the same frames through one more layer;
// the difference between adjacent rungs is that layer's cost.
const (
	rungMain      = "main"
	rungBatchLone = "batch-lone"
	rungBatchFull = "batch-full"
	rungServe     = "serve"
	rungMux       = "mux"
	rungFleet     = "fleet"
	rungStation   = "station"
)

// ladderReps is how many times each rung replays the frames.
const ladderReps = 3

// ladderOut is what the ladder measures besides its spans.
type ladderOut struct {
	nsPerFrameIter float64
	mux            []registry.MuxSnapshot
	router         fleet.Snapshot
	station        *passStats // nil unless the ladder ran the station rung
}

// runLadder replays frames lone through batch.Parallel, lone through
// the in-process serve.Server, over loopback through a registry.Mux,
// through a fleet.Router in front of that Mux, and in groups of eight
// through batch.Parallel, all built fresh from zero-value configurations over the
// codes the frames use. With stationPassFn set it also runs that on
// the ladder's stack (a station pass over its C2 pool). Every rung must return the hard decisions the
// lone batch call did.
func runLadder(tr *tracer, frames []*frame, stationPassFn func(*wireStack) (*passStats, error)) (*ladderOut, error) {
	var ids []registry.ID
	seen := map[registry.ID]bool{}
	for _, f := range frames {
		if !seen[f.id] {
			seen[f.id] = true
			ids = append(ids, f.id)
		}
	}
	s, err := startWireStack(ids, 1, true)
	if err != nil {
		return nil, err
	}
	defer s.close()
	direct, err := dial(s.backs[0].addr())
	if err != nil {
		return nil, err
	}
	defer direct.conn.Close()
	routed, err := dial(s.front())
	if err != nil {
		return nil, err
	}
	defer routed.conn.Close()

	p := fixed.DefaultHighSpeedParams()
	qs := make([][]int16, len(frames))
	for i, f := range frames {
		qs[i] = make([]int16, f.built.Code.N)
		if err := f.built.ExpandQ(qs[i], f.wire, p.Format.Max()); err != nil {
			return nil, err
		}
	}
	decs := map[registry.ID]*batch.Parallel{}
	defer func() {
		for _, d := range decs {
			d.Close()
		}
	}()
	for _, id := range ids {
		d, err := batch.NewParallel(s.built[id].Code, p, batch.ParallelConfig{})
		if err != nil {
			return nil, err
		}
		decs[id] = d
	}

	res := map[registry.ID][]ldpc.Result{}
	bits := map[registry.ID]*bitvec.Vector{}
	q := map[registry.ID][]int16{}
	for _, id := range ids {
		res[id] = make([]ldpc.Result, batch.Lanes)
		bits[id] = bitvec.New(s.built[id].Code.N)
		q[id] = make([]int16, s.built[id].Code.N)
	}

	// Lone rungs, interleaved frame by frame so that drift in the
	// machine's speed cancels out of the differences between rungs.
	want := make([]*bitvec.Vector, len(frames))
	check := func(rung string, i int) error {
		if !bits[frames[i].id].Equal(want[i]) {
			return fmt.Errorf("ladder: %s rung disagrees with the lone batch call on frame %d", rung, i)
		}
		return nil
	}
	for rep := 0; rep < ladderReps; rep++ {
		for i, f := range frames {
			r := res[f.id][:1]
			t := time.Now()
			if err := decs[f.id].DecodeQInto(r, qs[i:i+1]); err != nil {
				return nil, err
			}
			tr.add(spanBatch, rungBatchLone, int64(i), -1, t, time.Now(), 1)
			if want[i] == nil {
				want[i] = r[0].Bits.Clone()
			}

			srv, _, err := s.backs[0].mux.Pools().Get(f.id)
			if err != nil {
				return nil, err
			}
			t = time.Now()
			root := tr.reserve(spanRequest, rungServe, int64(i), t)
			if err := f.built.ExpandQ(q[f.id], f.wire, srv.Config().Params.Format.Max()); err != nil {
				return nil, err
			}
			t1 := time.Now()
			tr.add(spanExpand, rungServe, int64(i), root, t, t1, 1)
			if _, err := srv.DecodeQ(q[f.id], bits[f.id]); err != nil {
				return nil, err
			}
			end := time.Now()
			tr.add(spanServe, rungServe, int64(i), root, t1, end, 1)
			tr.finish(root, end, 1)
			if err := check(rungServe, i); err != nil {
				return nil, err
			}

			for _, rung := range []struct {
				name string
				c    *client
			}{{rungMux, direct}, {rungFleet, routed}} {
				t := time.Now()
				resp, err := rung.c.roundTrip(f, bits[f.id])
				if err != nil {
					return nil, err
				}
				tr.add(spanRequest, rung.name, int64(i), -1, t, time.Now(), 1)
				if resp.Status != serve.StatusOK {
					return nil, fmt.Errorf("ladder: %s rung answered frame %d with status %d", rung.name, i, resp.Status)
				}
				if err := check(rung.name, i); err != nil {
					return nil, err
				}
			}
		}
	}

	// Full calls: consecutive frames of one code, eight at a time.
	// ns per frame-iteration divides by the iterations the packed word
	// actually ran (its slowest lane) times its eight lanes.
	var fullTime time.Duration
	var frameIters int
	groups := map[registry.ID][]int{}
	for i, f := range frames {
		groups[f.id] = append(groups[f.id], i)
	}
	for rep := 0; rep < ladderReps; rep++ {
		for _, id := range ids {
			idx := groups[id]
			r := res[id]
			for g := 0; g+batch.Lanes <= len(idx); g += batch.Lanes {
				group := make([][]int16, batch.Lanes)
				for k := range group {
					group[k] = qs[idx[g+k]]
				}
				t := time.Now()
				if err := decs[id].DecodeQInto(r, group); err != nil {
					return nil, err
				}
				end := time.Now()
				tr.add(spanBatch, rungBatchFull, int64(idx[g]), -1, t, end, batch.Lanes)
				maxIt := 0
				for k := range r {
					maxIt = max(maxIt, r[k].Iterations)
					if !r[k].Bits.Equal(want[idx[g+k]]) {
						return nil, fmt.Errorf("ladder: full batch call disagrees with the lone call on frame %d", idx[g+k])
					}
				}
				fullTime += end.Sub(t)
				frameIters += batch.Lanes * maxIt
			}
		}
	}

	out := &ladderOut{mux: s.muxSnapshots(), router: s.routerSnap()}
	if frameIters > 0 {
		out.nsPerFrameIter = float64(fullTime.Nanoseconds()) / float64(frameIters)
	}
	if stationPassFn != nil {
		if out.station, err = stationPassFn(s); err != nil {
			return nil, err
		}
	}
	return out, nil
}
