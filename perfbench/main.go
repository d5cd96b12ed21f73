package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"ccsdsldpc/bench"
)

// Units of every metric the benchmark reports; BENCHMARK.json lists the
// same names and units.
var units = map[string]string{
	"setup_s":          "s",
	"mem_mb":           "MiB",
	"info_mbps":        "Mbit/s",
	"p50_ms":           "ms",
	"p99_ms":           "ms",
	"delivered_frac":   "ratio",
	"cpu_ms_per_frame": "ms",

	"batch.lone_call_ms":              "ms",
	"batch.full_call_ms":              "ms",
	"batch.ns_per_frame_iter":         "ns",
	"batch.iters_per_frame":           "count",
	"serve.lone_ms":                   "ms",
	"serve.sched_ms":                  "ms",
	"serve.batch_fill":                "frames",
	"serve.shed":                      "count",
	"serve.deadline":                  "count",
	"registry.expand_us":              "us",
	"registry.mux_ms":                 "ms",
	"registry.v2_frames":              "count",
	"registry.bad_frames":             "count",
	"fleet.hop_ms":                    "ms",
	"fleet.requeues":                  "count",
	"fleet.hedges":                    "count",
	"fleet.budget_denied":             "count",
	"fleet.lost":                      "count",
	"fleet.backend_share_max":         "ratio",
	"station.sync_ms_per_frame":       "ms",
	"station.decode_ms_per_frame":     "ms",
	"station.group_frames":            "frames",
	"station.cpu_busy_frac":           "ratio",
	"station.reject_frac":             "ratio",
	"station.unlocks":                 "count",
	"station.flywheel":                "count",
	"trace.p50_overhead_ms":           "ms",
	"trace.cpu_overhead_ms_per_frame": "ms",
}

// setupProbes is how many fresh processes re-measure set-up per run, on
// top of the run's own cold set-up; setup_s is the median.
const setupProbes = 6

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
}

// result is one run's outcome.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	report    map[string]any
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 30, "length of the measured phase in seconds")
		traceOn  = flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
		probe    = flag.Bool("setup-probe", false, "time one cold set-up of the workload, print it and exit")
		serveOn  = flag.Bool("serve", false, "serve an open-loop workload's system for a parent benchmark process (see remote.go)")
	)
	flag.Parse()
	if _, ok := wireSpecs[*workload]; !ok && *workload != downlinkName {
		fail(fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames(), ", ")))
	}
	if *probe {
		secs, err := coldSetup(*workload)
		if err != nil {
			fail(err)
		}
		fmt.Println(strconv.FormatFloat(secs, 'g', -1, 64))
		return
	}
	if *serveOn {
		spec, ok := wireSpecs[*workload]
		if !ok {
			fail(fmt.Errorf("-serve: %s is not an open-loop workload", *workload))
		}
		if err := serveMode(spec); err != nil {
			fail(err)
		}
		return
	}
	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fail(fmt.Errorf("need -seconds > 0 and -trace 0 or 1"))
	}
	o := options{workload: *workload, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *traceOn == 1}
	var res *result
	var err error
	if o.workload == downlinkName {
		res, err = runDownlink(o)
	} else {
		res, err = runWire(o, wireSpecs[o.workload])
	}
	if err != nil {
		fail(err)
	}
	res.report["workload"] = o.workload
	res.report["seed"] = o.seed
	res.report["seconds"] = o.seconds.Seconds()
	res.report["trace"] = o.trace
	res.report["env"] = bench.HostEnv()
	res.report["paper_table1"] = map[string]any{
		"note":          "the paper's FPGA figures, for comparison with info_mbps only; not metrics",
		"measured_mbps": 560,
		"model_mbps":    592,
		"iterations":    18,
	}
	emit(map[string]any{"report": res.report})

	out := map[string]any{}
	for name, v := range res.metrics {
		out[name] = map[string]any{"value": v, "unit": units[name]}
	}
	emit(map[string]any{"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": out})
	if !res.correct {
		os.Exit(1)
	}
}

func emit(v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(buf))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// coldSetup times one cold set-up of a workload's system, up to its
// first accepted frame, and tears the system down again.
func coldSetup(workload string) (float64, error) {
	if spec, ok := wireSpecs[workload]; ok {
		s, secs, err := timeSetup(spec.start)
		if err == nil {
			s.close()
		}
		return secs, err
	}
	s, secs, err := timeSetup(startPoolStack)
	if err == nil {
		s.close()
	}
	return secs, err
}

const downlinkName = "downlink-c2"

func workloadNames() []string { return []string{downlinkName, "serve-c2", "fleet-mixed"} }

// setupSamples re-runs the workload's cold set-up in setupProbes fresh
// processes, one after another, and returns their times after first.
func setupSamples(workload string, first float64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := []float64{first}
	for i := 0; i < setupProbes; i++ {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(exe, "-setup-probe", "-workload", workload)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up probe: %v: %s", err, stderr.String())
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(stdout.String()), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe output: %w", err)
		}
		out = append(out, v)
	}
	return out, nil
}
