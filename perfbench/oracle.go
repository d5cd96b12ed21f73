package main

import (
	"fmt"

	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/registry"
)

// oracleN is how many frames of each run are re-decoded by the
// arithmetic oracle.
const oracleN = 64

// oracleSample is one decoded frame as the system under test answered
// it: the wire LLRs it was given and the hard decisions, iteration
// count and convergence flag it returned.
type oracleSample struct {
	built     *registry.Built
	wire      []int16
	bits      *bitvec.Vector
	iters     int
	converged bool
}

// checkOracle re-decodes every sample with internal/fixed, the scalar
// bit-exact reference, at the serving defaults, and requires identical
// hard decisions, iteration counts and convergence flags.
func checkOracle(samples []oracleSample) error {
	p := fixed.DefaultHighSpeedParams()
	decs := map[*registry.Built]*fixed.Decoder{}
	for k, s := range samples {
		d := decs[s.built]
		if d == nil {
			var err error
			if d, err = fixed.NewDecoder(s.built.Code, p); err != nil {
				return err
			}
			decs[s.built] = d
		}
		q := make([]int16, s.built.Code.N)
		if err := s.built.ExpandQ(q, s.wire, p.Format.Max()); err != nil {
			return err
		}
		r := d.DecodeQ(q)
		if !r.Bits.Equal(s.bits) || r.Iterations != s.iters || r.Converged != s.converged {
			return fmt.Errorf("oracle mismatch on frame %d: system gave %d iterations (converged %v), internal/fixed %d (converged %v), hard decisions equal: %v",
				k, s.iters, s.converged, r.Iterations, r.Converged, r.Bits.Equal(s.bits))
		}
	}
	return nil
}
