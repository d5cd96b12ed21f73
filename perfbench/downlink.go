package main

import (
	"fmt"
	"time"

	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/ldpc"
	"ccsdsldpc/internal/registry"
	"ccsdsldpc/internal/serve"
	"ccsdsldpc/internal/station"
)

// The downlink-c2 pass: a C2 QPSK stream at 5 dB nominal with a drift
// dip to 3 dB over its middle third, one clock slip and one 90° flip,
// replayed in 4096-sample chunks.
const (
	dlFrames = 2000
	dlChunk  = 4096
	dlEbN0   = 5.0
	dlDipdB  = 3.0
)

func downlinkStream(b *registry.Built, frames int, seed uint64) (*station.Stream, error) {
	return station.BuildStream(b, station.StreamConfig{
		Frames:        frames,
		EbN0dB:        dlEbN0,
		BitsPerSymbol: 2,
		Seed:          seed,
		Scenario: station.Scenario{
			Slips: []station.Slip{{Frame: frames / 6, Symbol: 1000, Symbols: -3}},
			Flips: []station.Flip{{Frame: frames * 5 / 6, Symbol: 2000, Quarters: 1}},
			Drift: &station.Drift{FromFrame: frames / 3, ToFrame: 2 * frames / 3, MinEbN0dB: dlDipdB},
		},
	})
}

// poolStack is the downlink's system under test: the C2 code and its
// in-process serve pool, from the zero-value serve.Config.
type poolStack struct {
	built  *registry.Built
	pools  *registry.Pools
	srv    *serve.Server
	decode station.DecodeFunc
}

// startPoolStack builds the C2 code and pool cold and has one all-zero
// frame decoded through station.PoolDecode: set-up ends at the first
// accepted frame.
func startPoolStack() (*poolStack, error) {
	reg := registry.Default()
	pools := registry.NewPools(reg, serve.Config{})
	srv, b, err := pools.Get(registry.C2)
	if err != nil {
		pools.Close()
		return nil, err
	}
	s := &poolStack{built: b, pools: pools, srv: srv, decode: station.PoolDecode(b, srv, srv.Config().Params.Format)}
	z := zeroFrame(reg, registry.C2, b)
	bits := []*bitvec.Vector{bitvec.New(b.Code.N)}
	res, errs := s.decode([][]int16{z.wire}, bits)
	if errs[0] != nil || !res[0].Converged || !bits[0].IsZero() {
		pools.Close()
		return nil, fmt.Errorf("set-up frame: err %v converged %v", errs[0], res[0].Converged)
	}
	return s, nil
}

func (s *poolStack) close() { s.pools.Close() }

// passStats is one station pass over a stream.
type passStats struct {
	frames    int // ground-truth frames in the stream
	delivered int // bit-exact CADUs
	failed    int // frames whose decode submission failed
	latMs     []float64
	wall, cpu time.Duration

	decodeCalls, decodeFrames, iters int
	snap                             station.Snapshot
}

// stationPass runs a fresh station pipeline over a stream in chunks,
// timing each CADU from the start of the Ingest call that delivered the
// frame's last sample to the return that emitted it, then grades the
// CADUs against the stream's ground truth. Grading is outside the timed
// span. Wrong or extra CADUs fail the output check. The first oracle
// frames' decodes are appended to *oracle when it is non-nil.
func stationPass(built *registry.Built, decode station.DecodeFunc, stream *station.Stream, tr *tracer, rung string, oracle *[]oracleSample) (*passStats, error) {
	ps := &passStats{frames: len(stream.Frames)}
	parent, chunk := -1, int64(0)
	wrapped := func(wire [][]int16, bits []*bitvec.Vector) ([]ldpc.Result, []error) {
		t := time.Now()
		res, errs := decode(wire, bits)
		tr.add(spanDecode, rung, chunk, parent, t, time.Now(), len(wire))
		ps.decodeCalls++
		ps.decodeFrames += len(wire)
		for i := range wire {
			if errs[i] != nil {
				continue
			}
			ps.iters += res[i].Iterations
			if oracle != nil && len(*oracle) < oracleN {
				*oracle = append(*oracle, oracleSample{
					built: built, wire: append([]int16(nil), wire[i]...),
					bits: res[i].Bits.Clone(), iters: res[i].Iterations, converged: res[i].Converged,
				})
			}
		}
		return res, errs
	}
	var confirmed []int64
	st, err := station.New(station.Config{
		Built:         built,
		Decode:        wrapped,
		BitsPerSymbol: stream.BitsPerSymbol,
		EbN0dB:        dlEbN0,
		Observe: func(af station.AlignedFrame) {
			if !af.Flywheel {
				confirmed = append(confirmed, af.Pos)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	samples := stream.Samples
	nChunks := (len(samples) + dlChunk - 1) / dlChunk
	starts := make([]time.Time, nChunks+1)
	var cadus []station.Cadu
	emit := func(out []station.Cadu, k int, end time.Time) {
		for _, c := range out {
			last := int((c.Pos + int64(stream.FrameTotal) - 1) / dlChunk)
			if last > k {
				last = k
			}
			ps.latMs = append(ps.latMs, ms(end.Sub(starts[last])))
		}
		cadus = append(cadus, out...)
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	for k := 0; k <= nChunks; k++ {
		chunk = int64(k)
		starts[k] = time.Now()
		parent = tr.reserve(spanIngest, rung, chunk, starts[k])
		var out []station.Cadu
		if k < nChunks {
			out, _ = st.Ingest(samples[k*dlChunk : min((k+1)*dlChunk, len(samples))])
		} else {
			out, _ = st.Flush()
		}
		end := time.Now()
		tr.finish(parent, end, len(out))
		emit(out, k, end)
	}
	ps.wall = time.Since(t0)
	ps.cpu = cpuTime() - cpu0
	ps.snap = st.Metrics().Snapshot()
	// A failed submission is counted by the station and its frames
	// carry no CADU; the pipeline stays usable, so the pass goes on.
	ps.failed = int(ps.snap.DecodeErrors)
	g, err := station.Grade(stream, cadus, confirmed, ps.snap)
	if err != nil {
		return nil, err
	}
	if g.Corrupt != 0 || g.ExtraCadus != 0 || g.DirtyMiscorrected != 0 {
		return nil, fmt.Errorf("output check: %d corrupt, %d extra, %d miscorrected CADUs", g.Corrupt, g.ExtraCadus, g.DirtyMiscorrected)
	}
	ps.delivered = g.BitExact + g.DirtyRecovered
	return ps, nil
}
