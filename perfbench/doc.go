// Command perfbench is the repository's benchmark: three seeded workloads
// driven through the public entry points of internal/station,
// internal/fleet, internal/registry, internal/serve and internal/batch,
// every delivered frame checked against ground truth, seven end-to-end
// metrics from an untraced run and the per-layer metrics from a separate
// traced run.
//
// Run it from the repository root through its wrapper, which builds this
// module (its go.mod points back at the repository with a replace
// directive) into .bench_build/ with the Go build cache kept there too:
//
//	python3 perfbench/run.py --workload downlink-c2 --seed 1 --seconds 30 --trace 0
//	python3 perfbench/run.py --steady 10 --workload serve-c2    # median, quartiles, min/max per metric
//
// The last line of standard output is the result:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// The line before it is a report stamped with bench.HostEnv(), the seed,
// the workload parameters, the measured iterations per frame, the
// generator's lateness, the set-up samples and, for information only,
// the paper's Table 1 figures (560 Mbps measured, 592 Mbps model, both at
// 18 iterations; the software figures here are single-digit Mbit/s).
// Traced runs also write their spans to .bench_build/traces/.
//
// Every system is built from the library's zero-value defaults, which are
// what ldpcserver and ldpcstation ship: 18 iterations with early stop, lane
// width 1, superbatch 1, 500 µs linger, the automatic kernel choice, and
// the fleet router's default pools, timeouts and hedging. A change to a
// default is therefore measured.
//
// # Workloads
//
// downlink-c2 (closed loop, one goroutine). A seeded C2 QPSK pass of 2000
// frames from station.BuildStream, at 5 dB nominal with a Drift dip to
// 3 dB over the middle third, one clock slip and one 90° flip, is fed in
// 4096-sample chunks through station.Ingest and Flush, decoding through
// station.PoolDecode over an in-process serve.Server. Passes repeat,
// each on a fresh pipeline, until the measured time reaches the run
// length. This is the throughput path: full 8-frame decode groups plus
// sync and derandomization, with no TCP and no router. The dip makes
// delivered_frac (0.906 on seed 1) and the iteration count depend on the
// decoder's strength, so a faster but weaker decoder shows.
//
// serve-c2 (open loop). Poisson arrivals at 50 frames/s over two loopback
// TCP connections to a registry.Mux serving C2 with v1 frames at 4.2 dB.
// This is the lone-frame latency path an ldpcserver client sees. The Mux
// serves each connection serially, so at most 2 of 8 lanes fill; wide
// lanes and batching do not apply, while per-call kernel, linger and
// wire costs do. At 80 frames/s queueing amplified the host's speed swings
// into the tail: p99 read 20 ms in one period and 37 ms in a slower one,
// where 50 frames/s read 22 ms.
//
// fleet-mixed (open loop). Poisson arrivals at 40 frames/s, pipelined on
// one TCP connection into fleet.Router.ServeConn, which feeds two
// registry.Mux backends serving all five codes. Traffic is round-robin
// c2/c2s/ds12/ds23/ds45, with v1 and v2 framing interleaved on c2. It is
// the only workload through the router and the code-tagged Mux; lane fill
// is about 1 per per-code pool and ten pools share the cores. The rate
// is kept low because the tail spreads more near saturation (p99 spread
// 0.22 over ten seeds at 60 frames/s).
//
// The open-loop generator schedules each frame at a due time drawn from a
// seeded Poisson-like process (exponential gaps, a fixed count per run;
// uniform ticks gave a bimodal p50) and encodes one distinct frame per
// arrival. One dispatcher sends each frame at its due
// time, without waiting for replies, on the connection with the fewest
// requests outstanding, as a client's connection pool would; a reader per
// connection matches the in-order responses. Latency runs from the due
// time, so a stall is charged to every frame queued behind it. The
// generator records its lateness (due time to request bytes written); a
// run whose p99 lateness exceeds its p50 latency is refused as
// invalid. The system under test of the open-loop workloads runs in a
// child process of the benchmark binary (remote.go), so the generator
// never waits for a Go processor a decoder holds. Each open-loop run sends
// one second of unmeasured warm-up traffic first. The generator uses at
// most two connections and leaves GOMAXPROCS alone.
//
// # Steadiness
//
// On a shared host other tenants slow the CPU by 10–25% for seconds to
// minutes at a time (the same downlink pass took 2.3 s or 3.1 s within
// one run). Metrics exposed to that are therefore medians of per-pass
// values on downlink-c2 (info_mbps, p50_ms, p99_ms, cpu_ms_per_frame) and
// of per-sixth-of-the-phase values on the open-loop workloads (p50_ms,
// cpu_ms_per_frame); the open-loop p99_ms needs the whole run's samples
// and is taken over all of them. The open-loop schedule fixes the set of
// gaps between arrivals and draws only their order from the seed (see
// poissonSchedule), which took the spread of serve-c2's p99 over five
// seeds from 0.31 to 0.15. run.py --steady N prints each metric's median,
// quartiles, min/max and spread over N seeds beside its bound.
//
// # Output check
//
// Every run checks its outputs and exits non-zero on a mismatch. On the
// open-loop workloads every converged response must equal its
// transmitted codeword; on downlink-c2 every pass is graded with
// station.Grade and must have no corrupt, extra or miscorrected CADUs.
// The first 64 decoded frames of every run are re-decoded by
// internal/fixed, the arithmetic oracle, which must agree on hard
// decisions, iteration counts and convergence.
//
// # End-to-end metrics
//
//   - setup_s (s): cold start of everything the workload serves, up to the
//     first frame accepted: registry Entry.Build of every served code, the
//     pools and decoders, the listeners and the router's backend dials,
//     then one all-zero frame per code answered through the front. The
//     run's own set-up and six more in fresh processes (-setup-probe) are
//     timed; the median is reported. One cold sample spread 0.09–0.15 s.
//   - mem_mb (MiB): live heap the system retains: HeapAlloc after
//     runtime.GC at the end of the measured phase, minus the same reading
//     before set-up. On downlink-c2 the stream and oracle samples are
//     dropped first; on the open-loop workloads the serving child holds no
//     generator input.
//   - info_mbps (Mbit/s): payload bits of bit-exact delivered frames over
//     the wall time of the measured phase (of one pass on downlink-c2).
//     The headline on downlink-c2; on the open-loop workloads it equals
//     the offered rate unless the system falls behind.
//   - p50_ms, p99_ms (ms): per-frame latency of delivered frames. Open
//     loop: due time to response. downlink-c2: from the start of the
//     Ingest call that delivered the frame's last sample to the return of
//     the Ingest or Flush that emitted its CADU. p99 rests on at least
//     1000 frames: 1500 per run on serve-c2, 1200 on fleet-mixed, about
//     1800 per pass on downlink-c2.
//   - delivered_frac (ratio): frames delivered bit-exact over frames
//     attempted; shed, deadlined, errored, unconverged or missing frames
//     are not delivered.
//   - cpu_ms_per_frame (ms): user+sys CPU of the process serving the
//     workload over the measured phase, per frame attempted. Where
//     info_mbps is pinned to the offered rate, capacity shows here.
//
// # Per-layer metrics
//
// The traced run (-trace 1) spends half the run length untraced and half
// traced on the workload, then runs the ladder. Spans are recorded only
// in this package, around calls into each module: the client request,
// station.Ingest, the wrapped DecodeFunc, Built.ExpandQ,
// serve.Server.DecodeQ and batch.Parallel.DecodeQInto; each carries name,
// start, end, parent and a per-frame id, and self time is a span minus its
// children. Spans cannot reach inside the Mux or the Router, so the ladder
// replays the workload's first 64 frames through each rung alone, frame by
// frame and three times over, on a fresh in-process stack: a lone
// batch.Parallel call, serve.Server.DecodeQ, a Mux loopback round trip and
// a round trip through a one-backend router, plus eight-frame batch calls.
// The paired difference between adjacent rungs on the same frame is that
// layer's cost. The ladder's round trips run one at a time, so
// registry.mux_ms holds no generator wake-up; under open-loop load that
// wake-up is in p50_ms (the report's lateness p50, about 0.65 ms on a
// 2-vCPU box). Layers a workload does not use come from the ladder; the
// station metrics on serve-c2 and fleet-mixed come from a 64-frame station
// pass over the ladder's C2 pool. The last column names the end-to-end
// metric each should move.
//
//	batch.lone_call_ms          1-frame DecodeQInto           p50_ms on serve-c2 (~6.8 of ~9.5 ms), fleet-mixed
//	batch.full_call_ms          8-frame DecodeQInto           info_mbps on downlink-c2
//	batch.ns_per_frame_iter     full call / (8 × iterations    cpu_ms_per_frame on all; info_mbps on downlink-c2
//	                            the packed word ran)
//	batch.iters_per_frame       iterations per decoded frame  cpu_ms_per_frame; may move only if downlink-c2
//	                            in the traced phase           delivered_frac holds
//	serve.lone_ms               in-process DecodeQ, 1 frame   p50_ms on serve-c2
//	serve.sched_ms              that minus the batch call     p50_ms on serve-c2 (queue + linger + hand-off)
//	serve.batch_fill            frames decoded / batches      cpu_ms_per_frame on fleet-mixed; 8 on downlink-c2
//	serve.shed, serve.deadline  counts                        delivered_frac
//	registry.expand_us          Built.ExpandQ per frame       p50_ms on serve-c2
//	registry.mux_ms             Mux round trip minus          p50_ms on serve-c2 and fleet-mixed
//	                            serve.lone_ms
//	registry.v2_frames,         MuxSnapshot counts, traced    delivered_frac on fleet-mixed
//	registry.bad_frames         phase and ladder
//	fleet.hop_ms                router round trip minus Mux   p50_ms/p99_ms on fleet-mixed; no change
//	                            round trip                    predicted elsewhere
//	fleet.requeues, .hedges,    router Snapshot counts        delivered_frac, p99_ms on fleet-mixed
//	.budget_denied, .lost       (expected 0)
//	fleet.backend_share_max     largest per-backend share     p99_ms on fleet-mixed (the ladder's
//	                                                          one-backend router reads 1 elsewhere)
//	station.sync_ms_per_frame   Ingest minus DecodeFunc       info_mbps on downlink-c2 (~30–38% of wall)
//	station.decode_ms_per_frame time inside DecodeFunc        info_mbps on downlink-c2 (~62–71%)
//	station.group_frames        frames per DecodeFunc call    info_mbps on downlink-c2
//	station.cpu_busy_frac       CPU / (wall × GOMAXPROCS)     info_mbps on downlink-c2
//	station.reject_frac,        station Metrics counts        delivered_frac on downlink-c2
//	.unlocks, .flywheel
//	trace.p50_overhead_ms,      traced minus untraced half    none: the cost of tracing itself
//	trace.cpu_overhead_ms_per_frame
//
// How the layers interact. On serve-c2 nothing contends, so a faster
// layer saves at most its share of the blocking path: kernel ~70%,
// Mux and wire ~25%, scheduler ~8%. On downlink-c2 Ingest blocks on
// each 8-frame group, so sync and decode alternate, the pass takes the
// sum of the two and station.cpu_busy_frac sits near 0.5 on two cores;
// overlapping sync with decode would lift that ceiling, wider lanes would
// not (each group is one word). On fleet-mixed the tail is set by CPU
// contention among the ten pools.
//
// Sizing probes on a 2-vCPU box: downlink-c2 3 s runs spread ±6% on
// info_mbps and 1 s runs ±17%; serve-c2 at 80 frames/s p50 about 9 ms
// and p99 about 20 ms, ±8% between same-seed runs; fleet-mixed at
// 60 frames/s p50 7–8 ms and p99 22–28 ms (±13%), growing to ±20% at
// 120 frames/s. One-shot set-up
// timings near 0.1 s, tails measured near saturation and ~1 s throughput
// runs were the noise sources, hence the long runs, the low rates and the
// set-up median. A search for the highest rate under a p99 limit is left
// out: it multiplies run time and jumps by its step size.
package main
