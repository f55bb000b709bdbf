// Command perfbench is the repository's benchmark. It drives the
// simulator, the live TCP node and the experiment service through their
// public entry points, times every call from outside, checks the outputs,
// and prints one JSON result line.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload sim-converge --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a separate traced run, whose spans
// are also written to .bench_build/spans/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

// run configures one benchmark run.
type run struct {
	seed    uint64
	seconds time.Duration
	tr      *tracer // nil unless --trace 1
}

// scaled sizes a workload's measured phase to the run length: n units at
// the reference --seconds 10, proportionally otherwise, at least one.
func (r *run) scaled(n int) int {
	return max(1, int(float64(n)*r.seconds.Seconds()/10+0.5))
}

// opTracer returns the tracer for a workload's i-th operation. Traced runs
// alternate instrumented and bare operations, so the gap between the two
// medians (outcome.tracedOps, outcome.bareOps) is the tracing overhead.
func (r *run) opTracer(i int) *tracer {
	if i%2 == 0 {
		return r.tr
	}
	return nil
}

// outcome is what a workload reports.
type outcome struct {
	attempted, failed int
	checks            checks
	// e2e holds the contract's end-to-end metrics (see endToEnd).
	e2e map[string]float64
	// report holds the workload's end-to-end figures under the names the
	// per-workload tables in README.md use (round_p50_s, block_p50_ms, ...).
	report map[string]float64
	// layers holds per-layer metrics; filled on traced runs only.
	layers  map[string]float64
	samples map[string][]float64 // per-layer samples behind layers

	tracedOps, bareOps []float64 // op times, traced runs only
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, report: map[string]float64{}, layers: map[string]float64{}, samples: map[string][]float64{}}
}

// addSample keeps every sample of a per-layer metric and stores their
// median as the metric.
func (o *outcome) addSample(name string, v float64) {
	o.samples[name] = append(o.samples[name], v)
	o.layers[name] = median(slices.Clone(o.samples[name]))
}

// addOp records an operation's time on a traced run, by whether it was
// instrumented.
func (o *outcome) addOp(traced bool, v float64) {
	if traced {
		o.tracedOps = append(o.tracedOps, v)
	} else {
		o.bareOps = append(o.bareOps, v)
	}
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run reports, in every
// workload; README.md gives each one's meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"aux_p50_ms", "ms"},
	{"rate_per_s", "1/s"},
	{"heap_mb", "MB"},
}

// perLayer lists the metrics every traced run reports. A layer the
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"netsim.broadcast_ns", "ns"},
	{"netsim.deliveries", "count"},
	{"netsim.broadcast_allocs", "count"},
	{"netsim.arrival_ns", "ns"},
	{"core.delays_s", "s"},
	{"core.step_s", "s"},
	{"core.subset_select_ns", "ns"},
	{"core.subset_select_allocs", "count"},
	{"core.links_changed", "count"},
	{"latency.delay_ns", "ns"},
	{"topology.random_build_s", "s"},
	{"wire.write_ns.inv", "ns"},
	{"wire.write_ns.getdata", "ns"},
	{"wire.write_ns.block_small", "ns"},
	{"wire.write_ns.block_large", "ns"},
	{"wire.read_ns.inv", "ns"},
	{"wire.read_ns.getdata", "ns"},
	{"wire.read_ns.block_small", "ns"},
	{"wire.read_ns.block_large", "ns"},
	{"wire.allocs.inv", "count"},
	{"wire.allocs.getdata", "count"},
	{"wire.allocs.block_small", "count"},
	{"wire.allocs.block_large", "count"},
	{"wire.bytes.inv", "bytes"},
	{"wire.bytes.getdata", "bytes"},
	{"wire.bytes.block_small", "bytes"},
	{"wire.bytes.block_large", "bytes"},
	{"chain.check_block_ns.small", "ns"},
	{"chain.check_block_ns.large", "ns"},
	{"chain.header_hash_ns", "ns"},
	{"chain.encode_ns.large", "ns"},
	{"chain.decode_ns.large", "ns"},
	{"chain.store_add_ns", "ns"},
	{"p2p.mine_ns", "ns"},
	{"p2p.first_hop_ms", "ms"},
	{"p2p.lost_blocks", "count"},
	{"p2p.slow_consumer_drops", "count"},
	{"p2p.outbound_after_burst", "count"},
	{"p2p.addrbook_add_ns", "ns"},
	{"p2p.addrbook_gossipable_ns", "ns"},
	{"serve.queue_wait_s", "s"},
	{"serve.run_s", "s"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.events_per_job", "count"},
	{"serve.event_bytes_per_job", "bytes"},
	{"serve.refused", "count"},
	{"trace.records_per_job", "count"},
	{"trace.encode_ns", "ns"},
	{"experiments.run_s.figure3a", "s"},
	{"experiments.run_s.adversary-withholding", "s"},
	{"experiments.run_s.forks", "s"},
	{"tracing.overhead_pct", "%"},
	{"tracing.span_ns", "ns"},
	{"tracing.spans", "count"},
}

var workloads = map[string]func(*run) (*outcome, error){
	"sim-converge": simConverge,
	"sim-scale":    simScale,
	"live-relay":   liveRelay,
	"serve-jobs":   serveJobs,
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	workload := flag.String("workload", "", "workload name: sim-converge, sim-scale, live-relay or serve-jobs")
	seed := flag.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Int("seconds", 10, "run length; each workload's measured phase scales with it (sized for 10)")
	traced := flag.Int("trace", 0, "1 for the traced per-layer run, 0 for end-to-end metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		names := make([]string, 0, len(workloads))
		for k := range workloads {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0, --trace 0|1\n", names)
		return 2
	}
	r := &run{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if *traced == 1 {
		r.tr = newTracer(fmt.Sprintf("%s-seed%d", *workload, *seed))
	}

	prov := map[string]any{
		"workload":   *workload,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *traced,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"commit":     envOr("PERFBENCH_COMMIT", "unknown"),
		"source":     envOr("PERFBENCH_SOURCE", "unknown"),
	}
	printJSON(map[string]any{"provenance": prov})

	start := time.Now()
	out, err := fn(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	out.report["peak_rss_mb"] = peakRSSMB()
	out.report["wall_s"] = time.Since(start).Seconds()
	out.report["fail_ratio"] = float64(out.failed) / float64(max(out.attempted, 1))

	defs, values := endToEnd, out.e2e
	if r.tr != nil {
		defs, values = perLayer, out.layers
		values["tracing.spans"] = float64(len(r.tr.spans))
		values["tracing.overhead_pct"] = 100 * (median(out.tracedOps)/median(out.bareOps) - 1)
		values["tracing.span_ns"] = spanCost()
		if err := r.tr.write(".bench_build/spans", fmt.Sprintf("%s-seed%d.json", *workload, *seed)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
	}
	printJSON(map[string]any{"provenance": prov, "report": finite(out.report), "checks": out.checks.list})

	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && r.tr != nil {
			v, ok = 0, true // a layer this workload does not reach
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s not measured (%v)\n", *workload, d.name, v)
			return 1
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	if out.attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no operation attempted\n", *workload)
		return 1
	}
	printJSON(map[string]any{
		"correct":   out.checks.ok(),
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	return 0
}

// finite drops NaN and infinite figures, which JSON cannot carry.
func finite(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[k] = v
		}
	}
	return out
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of numbers and strings reach here
	}
	fmt.Println(string(data))
}

// subSeed derives an independent 64-bit seed for one labelled input from
// the workload seed (splitmix64 over the seed and a label hash).
func subSeed(seed uint64, label string, index int) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * 1099511628211
	}
	z := seed ^ h ^ uint64(index)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
