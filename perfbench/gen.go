package main

import (
	"math"
	"time"

	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/channel"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/registry"
	"ccsdsldpc/internal/rng"
	"ccsdsldpc/internal/sim"
)

// frame is one generated request: a code's wire LLRs (transmitted
// positions only, quantized to the serving format) and the inner
// codeword that was sent, the ground truth its response is checked
// against.
type frame struct {
	id    registry.ID
	built *registry.Built
	v2    bool
	wire  []int16
	cw    *bitvec.Vector
}

// genFrames encodes n seeded random frames, cycling round-robin over
// codes, through AWGN at ebn0 dB. Frames of the registry's default
// code alternate v1 and v2 framing when mixV1 is set; every other code
// is always v2-tagged.
func genFrames(reg *registry.Registry, codes []*registry.Built, ids []registry.ID, n int, ebn0 float64, seed uint64, mixV1 bool) ([]*frame, error) {
	f := fixed.DefaultHighSpeedParams().Format
	chans := make([]*channel.AWGN, len(codes))
	masks := make([][]bool, len(codes))
	for i, b := range codes {
		kEff := b.Code.K - len(b.KnownZero)
		nTx := b.Code.N - len(b.PuncturedCols) - len(b.KnownZero)
		ch, err := channel.NewAWGN(ebn0, float64(kEff)/float64(nTx))
		if err != nil {
			return nil, err
		}
		chans[i] = ch
		masks[i] = sim.ColumnMask(b.Code.N, b.KnownZero)
	}
	r := rng.New(seed ^ 0x6672616d65)
	out := make([]*frame, n)
	for i := range out {
		c := i % len(codes)
		b := codes[c]
		cw := b.Code.Encode(sim.RandomInfo(b.Code, masks[c], r))
		q := f.QuantizeSlice(nil, chans[c].CorruptCodeword(cw, r))
		wire := make([]int16, len(b.TxPositions))
		for w, j := range b.TxPositions {
			if j >= 0 {
				wire[w] = q[j]
			} else {
				wire[w] = f.Max() // alignment fill: a known zero
			}
		}
		v2 := ids[c] != reg.DefaultID() || (mixV1 && (i/len(codes))%2 == 1)
		out[i] = &frame{id: ids[c], built: b, v2: v2, wire: wire, cw: cw}
	}
	return out, nil
}

// poissonSchedule returns round(rate × window) due offsets spread over
// the window with exponentially distributed gaps, as a Poisson process
// at that rate has. The gaps are the exponential distribution's
// quantiles at evenly spaced probabilities, shuffled by the seed, and
// scaled to fill the window: every run offers the same number of frames
// with the same set of gaps, and only their order is drawn. A p99 rests
// on the few arrivals that land close together; drawing the gaps
// themselves made how many do vary from seed to seed, which doubled the
// spread of p99 across seeds.
func poissonSchedule(rate float64, window time.Duration, seed uint64) []time.Duration {
	n := int(math.Round(rate * window.Seconds()))
	gaps := make([]float64, n)
	total := 0.0
	for i := range gaps {
		gaps[i] = -math.Log(1 - (float64(i)+0.5)/float64(n))
		total += gaps[i]
	}
	r := rng.New(seed ^ 0x706f6973736f6e)
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		gaps[i], gaps[j] = gaps[j], gaps[i]
	}
	out := make([]time.Duration, n)
	t := 0.0
	for i, g := range gaps {
		out[i] = time.Duration(t / total * float64(window))
		t += g
	}
	return out
}
