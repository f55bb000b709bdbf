package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"github.com/perigee-net/perigee"
	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/geo"
	"github.com/perigee-net/perigee/internal/hashpower"
	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/netsim"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/stats"
	"github.com/perigee-net/perigee/internal/topology"
)

// Paper defaults shared by both simulator workloads.
const (
	coverage    = 0.9                   // λ: delay to 90% of hash power
	outDegree   = 8                     // outgoing connections per node
	maxIncoming = 20                    // inbound cap
	validation  = 50 * time.Millisecond // per-node forwarding delay Δ_v
)

// Workload sizes.
const (
	convergeNodes  = 1000 // the paper's n
	convergeRounds = 10   // rounds between the two λ passes
	convergeReps   = 3    // pipelines per run at --seconds 10
	convergeSetups = 20   // extra set-ups timed per run
	lambdaEvery    = 2    // rounds between timed λ passes
	checkRounds    = 2    // rounds rerun for the Workers=1 check; a multiple of lambdaEvery

	scaleNodes     = 20000 // streaming latency by Auto from here on
	scaleWindow    = 20    // ObservationWindow
	scaleLandmarks = 64    // λ sources
	scaleRounds    = 3     // rounds per run at --seconds 10

	replaySources = 16 // broadcasts replayed per traced round
)

// simStats gathers the samples both simulator workloads report.
type simStats struct {
	setups, rounds, evals, runs []float64 // seconds
	lambda0, lambda1            []float64 // ms: p50 (converge) or p90 (scale) per pipeline
	blocks                      int
	stepTime                    time.Duration
	linksChanged                []float64
}

func (s *simStats) finish(out *outcome, lambdaName string) {
	roundMs := inMs(s.rounds)
	out.e2e["setup_s"] = median(s.setups)
	out.e2e["op_p50_ms"] = median(roundMs)
	out.e2e["op_p90_ms"] = quantile(roundMs, 0.9)
	out.e2e["aux_p50_ms"] = median(inMs(s.evals))
	out.e2e["rate_per_s"] = float64(s.blocks) / s.stepTime.Seconds()
	out.report["setup_s"] = median(s.setups)
	out.report["run_s"] = median(s.runs)
	out.report["round_p50_s"] = median(s.rounds)
	out.report["lambda_eval_s"] = median(s.evals)
	out.report[lambdaName+"_initial_ms"] = median(s.lambda0)
	out.report[lambdaName+"_ms"] = median(s.lambda1)
	out.report["rounds"] = float64(len(s.rounds))
	out.report["pipelines"] = float64(len(s.runs))
	out.layers["core.links_changed"] = median(s.linksChanged)
	out.layers["core.delays_s"] = median(s.evals)
	out.layers["core.step_s"] = median(s.rounds)
}

func inMs(seconds []float64) []float64 {
	out := make([]float64, len(seconds))
	for i, x := range seconds {
		out[i] = x * 1e3
	}
	return out
}

// simConverge runs the paper's setting through the public facade:
// perigee.New(1000) with Subset scoring and precomputed latency; λ over all
// sources, convergeRounds rounds with a λ pass every lambdaEvery rounds, λ
// again — repeated on convergeReps fresh inputs (at --seconds 10). The
// work does not depend on the machine's speed, so every commit is measured
// on the same rounds.
func simConverge(r *run) (*outcome, error) {
	out := newOutcome()
	var st simStats
	for i := 0; i < convergeSetups; i++ {
		t := time.Now()
		if _, _, err := buildConverge(r.tr, -1, subSeed(r.seed, "sim-converge-setup", i), 0); err != nil {
			return nil, err
		}
		st.setups = append(st.setups, time.Since(t).Seconds())
	}
	for rep := 0; rep < r.scaled(convergeReps); rep++ {
		seed := subSeed(r.seed, "sim-converge", rep)
		pipe := r.tr.begin("pipeline", -1)
		t0 := time.Now()
		net, lat, err := buildConverge(r.tr, pipe, seed, 0)
		if err != nil {
			return nil, err
		}
		st.setups = append(st.setups, time.Since(t0).Seconds())

		l0, err := timedDelays(r, out, &st, pipe, net)
		if err != nil {
			return nil, err
		}
		var digest2 [32]byte
		var lambda2 []time.Duration
		for i := 0; i < convergeRounds; i++ {
			traced, err := timedStep(r, out, &st, pipe, net)
			if err != nil {
				return nil, err
			}
			if traced {
				if err := replayConverge(r, out, pipe, net, lat, seed, i); err != nil {
					return nil, err
				}
			}
			if (i+1)%lambdaEvery == 0 && i+1 < convergeRounds {
				l, err := timedDelays(r, out, &st, pipe, net)
				if err != nil {
					return nil, err
				}
				if rep == 0 && i+1 == checkRounds {
					lambda2 = l
					digest2 = adjacencyDigest(net.N(), net.OutNeighbors)
				}
			}
		}
		l1, err := timedDelays(r, out, &st, pipe, net)
		if err != nil {
			return nil, err
		}
		st.runs = append(st.runs, time.Since(t0).Seconds())
		r.tr.end(pipe)
		if rep == r.scaled(convergeReps)-1 {
			out.e2e["heap_mb"] = retainedHeapMB()
		}

		p0, p1 := median(durationsMs(l0)), median(durationsMs(l1))
		st.lambda0 = append(st.lambda0, p0)
		st.lambda1 = append(st.lambda1, p1)
		out.checks.add(fmt.Sprintf("rep%d.converged", rep), p1 < p0, "median λ %.1f -> %.1f ms", p0, p1)
		checkDegrees(&out.checks, fmt.Sprintf("rep%d", rep), net.N(), net.OutNeighbors)
		if rep == 0 {
			if err := checkWorkersConverge(&out.checks, seed, digest2, lambda2); err != nil {
				return nil, err
			}
		}
	}
	st.finish(out, "lambda_p50")
	return out, nil
}

// convergeNet is the part of *perigee.Network the benchmark drives.
type convergeNet interface {
	N() int
	Step() (perigee.RoundSummary, error)
	BroadcastDelays(frac float64) ([]time.Duration, error)
	OutNeighbors(v int) []int
}

type facadeNet struct {
	*perigee.Network
	n int
}

func (f facadeNet) N() int { return f.n }

func buildConverge(tr *tracer, parent int, seed uint64, workers int) (convergeNet, perigee.LatencyModel, error) {
	sp := tr.begin("perigee.New", parent)
	defer tr.end(sp)
	lat, err := perigee.GeographicLatency(convergeNodes, seed)
	if err != nil {
		return nil, nil, err
	}
	opts := []perigee.Option{
		perigee.WithSeed(seed),
		perigee.WithLatency(lat),
		perigee.WithLatencyMode(perigee.LatencyPrecomputed),
	}
	if workers > 0 {
		opts = append(opts, perigee.WithWorkers(workers))
	}
	net, err := perigee.New(convergeNodes, opts...)
	if err != nil {
		return nil, nil, err
	}
	return facadeNet{net, convergeNodes}, lat, nil
}

func timedDelays(r *run, out *outcome, st *simStats, parent int, net convergeNet) ([]time.Duration, error) {
	out.attempted++
	sp := r.tr.begin("core.Delays", parent)
	t := time.Now()
	d, err := net.BroadcastDelays(coverage)
	st.evals = append(st.evals, time.Since(t).Seconds())
	r.tr.end(sp)
	if err != nil {
		out.failed++
	}
	return d, err
}

// timedStep runs one round and reports whether it was instrumented (see
// run.opTracer); callers replay the layers of instrumented rounds only.
func timedStep(r *run, out *outcome, st *simStats, parent int, net convergeNet) (bool, error) {
	out.attempted++
	tr := r.opTracer(len(st.rounds))
	sp := tr.begin("core.Step", parent)
	t := time.Now()
	rep, err := net.Step()
	d := time.Since(t)
	tr.end(sp)
	if err != nil {
		out.failed++
		return false, err
	}
	if r.tr != nil {
		out.addOp(tr != nil, d.Seconds())
	}
	st.rounds = append(st.rounds, d.Seconds())
	st.stepTime += d
	st.blocks += rep.Blocks
	st.linksChanged = append(st.linksChanged, float64(rep.ConnectionsDropped+rep.ConnectionsAdded))
	return tr != nil, nil
}

// checkWorkersConverge rebuilds the first pipeline's network with one
// worker, runs the same rounds and compares topology and λ bit for bit.
func checkWorkersConverge(c *checks, seed uint64, digest [32]byte, lambda []time.Duration) error {
	net, _, err := buildConverge(nil, -1, seed, 1)
	if err != nil {
		return err
	}
	for i := 0; i < checkRounds; i++ {
		if _, err := net.Step(); err != nil {
			return err
		}
	}
	got := adjacencyDigest(net.N(), net.OutNeighbors)
	l, err := net.BroadcastDelays(coverage)
	if err != nil {
		return err
	}
	c.add("workers1.adjacency", got == digest, "digest after %d rounds %x vs %x", checkRounds, got[:6], digest[:6])
	c.add("workers1.lambda", slices.Equal(l, lambda), "%d λ values compared", len(l))
	return nil
}

// replayConverge replays one round's layers on the round's topology
// snapshot — broadcasts from sampled sources, the analytic arrival pass,
// and SubsetSelect on the harvested observations — timing each layer at a
// fixed iteration count. Only traced runs call it.
func replayConverge(r *run, out *outcome, parent int, net convergeNet, lat perigee.LatencyModel, seed uint64, round int) error {
	n := net.N()
	outs := make([][]int, n)
	for v := range outs {
		outs[v] = net.OutNeighbors(v)
	}
	forward := make([]time.Duration, n)
	for i := range forward {
		forward[i] = validation
	}
	sim, err := netsim.New(netsim.Config{Adj: undirected(outs), Latency: lat, Forward: forward, LatencyMode: latency.Precomputed})
	if err != nil {
		return err
	}
	sources := rand.New(rand.NewPCG(seed, uint64(round))).Perm(n)[:replaySources]
	replayLayers(r, out, parent, sim, outs, sources, true)
	return nil
}

// replayLayers times broadcasts and arrival passes from the sources over
// sim and, when selecting, SubsetSelect on every node's harvested
// observations of those broadcasts. Results accumulate into out.layers as
// running medians across calls.
func replayLayers(r *run, out *outcome, parent int, sim *netsim.Simulator, outs [][]int, sources []int, selecting bool) {
	b := sim.NewBroadcaster()
	if _, err := b.Broadcast(sources[0]); err != nil { // size the scratch buffers
		return
	}
	start := time.Now()
	deliveries := 0
	m := measure(len(sources), len(sources)/4, func(i int) {
		res, _ := b.Broadcast(sources[i])
		if i == 0 {
			for _, row := range res.EdgeArrival {
				for _, t := range row {
					if t != stats.InfDuration {
						deliveries++
					}
				}
			}
		}
	})
	r.tr.add("netsim.Broadcast", parent, start, time.Since(start))
	out.addSample("netsim.broadcast_ns", m.ns)
	out.addSample("netsim.broadcast_allocs", m.allocs)
	out.addSample("netsim.deliveries", float64(deliveries))

	var arr []time.Duration
	start = time.Now()
	m = measure(len(sources), len(sources)/4, func(i int) { arr, _ = sim.ArrivalAnalyticInto(arr, sources[i]) })
	r.tr.add("netsim.ArrivalAnalyticInto", parent, start, time.Since(start))
	out.addSample("netsim.arrival_ns", m.ns)

	if !selecting {
		return
	}
	obs := harvest(sim, b, outs, sources)
	retain := outDegree - core.DefaultParams(core.Subset).Explore
	start = time.Now()
	m = measure(len(obs), 4, func(v int) { core.SubsetSelect(obs[v], retain, coverage) })
	r.tr.add("core.SubsetSelect", parent, start, time.Since(start))
	out.addSample("core.subset_select_ns", m.ns)
	out.addSample("core.subset_select_allocs", m.allocs)
}

// harvest builds every node's observation matrix from broadcasts of the
// sources: offsets of each outgoing neighbor's announcement relative to
// the node's earliest one, as the engine records them.
func harvest(sim *netsim.Simulator, b *netsim.Broadcaster, outs [][]int, sources []int) []core.Observations {
	n := len(outs)
	obs := make([]core.Observations, n)
	for v := range obs {
		obs[v] = core.NewObservations(outs[v], len(sources))
	}
	for blk, src := range sources {
		res, err := b.Broadcast(src)
		if err != nil {
			continue
		}
		for v := 0; v < n; v++ {
			row := res.EdgeArrival[v]
			tMin := stats.InfDuration
			for _, t := range row {
				tMin = min(tMin, t)
			}
			if tMin == stats.InfDuration {
				continue
			}
			adjRow := sim.Row(v)
			for i, u := range outs[v] {
				slot, ok := slices.BinarySearch(adjRow, int32(u))
				if ok && row[slot] != stats.InfDuration {
					obs[v].Offsets[blk][i] = row[slot] - tMin
				}
			}
		}
	}
	return obs
}

func undirected(outs [][]int) [][]int {
	adj := make([][]int, len(outs))
	for v, row := range outs {
		for _, u := range row {
			adj[v] = append(adj[v], u)
			adj[u] = append(adj[u], v)
		}
	}
	for v := range adj {
		slices.Sort(adj[v])
		adj[v] = slices.Compact(adj[v])
	}
	return adj
}

func adjacencyDigest(n int, outNeighbors func(int) []int) [32]byte {
	h := sha256.New()
	var buf [8]byte
	for v := 0; v < n; v++ {
		row := outNeighbors(v)
		binary.LittleEndian.PutUint64(buf[:], uint64(len(row)))
		h.Write(buf[:])
		for _, u := range row {
			binary.LittleEndian.PutUint64(buf[:], uint64(u))
			h.Write(buf[:])
		}
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

func checkDegrees(c *checks, prefix string, n int, outNeighbors func(int) []int) {
	in := make([]int, n)
	badOut := 0
	for v := 0; v < n; v++ {
		row := outNeighbors(v)
		if len(row) != outDegree {
			badOut++
		}
		for _, u := range row {
			in[u]++
		}
	}
	c.add(prefix+".out_degree", badOut == 0, "%d nodes not at out-degree %d", badOut, outDegree)
	c.add(prefix+".in_degree", slices.Max(in) <= maxIncoming, "max in-degree %d (cap %d)", slices.Max(in), maxIncoming)
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// scaleEnv is one sim-scale network: the scale stack built from the
// internal packages, as the scale scenario builds it, so λ can be
// evaluated at landmark sources.
type scaleEnv struct {
	engine    *core.Engine
	lat       *latency.Geographic
	landmarks []int
}

func buildScale(r *run, out *outcome, parent int, seed uint64, workers int) (*scaleEnv, error) {
	sp := r.tr.begin("setup", parent)
	defer r.tr.end(sp)
	root := rng.New(seed)
	universe, err := geo.SampleUniverse(scaleNodes, root.Derive("universe"))
	if err != nil {
		return nil, err
	}
	lat, err := latency.NewGeographic(universe, root.Derive("latency"))
	if err != nil {
		return nil, err
	}
	power, err := hashpower.Uniform(scaleNodes)
	if err != nil {
		return nil, err
	}
	forward := make([]time.Duration, scaleNodes)
	for i := range forward {
		forward[i] = validation
	}
	tsp := r.tr.begin("topology.Random", sp)
	t := time.Now()
	tbl, err := topology.Random(scaleNodes, outDegree, maxIncoming, root.Derive("random-topology"))
	if r.tr != nil {
		out.addSample("topology.random_build_s", time.Since(t).Seconds())
	}
	r.tr.end(tsp)
	if err != nil {
		return nil, err
	}
	esp := r.tr.begin("core.NewEngine", sp)
	engine, err := core.NewEngine(core.Config{
		Method:            core.Subset,
		Params:            core.DefaultParams(core.Subset),
		Table:             tbl,
		Latency:           lat,
		Forward:           forward,
		Power:             power,
		Rand:              root.Derive("engine"),
		Workers:           workers,
		LatencyMode:       latency.Auto,
		ObservationWindow: scaleWindow,
	})
	r.tr.end(esp)
	if err != nil {
		return nil, err
	}
	perm := rand.New(rand.NewPCG(seed, 0x6c616e64)).Perm(scaleNodes) // "land"
	landmarks := slices.Clone(perm[:scaleLandmarks])
	slices.Sort(landmarks)
	return &scaleEnv{engine: engine, lat: lat, landmarks: landmarks}, nil
}

// scaleNet adapts a core engine to convergeNet, with λ at the landmarks.
type scaleNet struct{ e *scaleEnv }

func (s scaleNet) N() int { return s.e.engine.N() }
func (s scaleNet) Step() (perigee.RoundSummary, error) {
	rep, err := s.e.engine.Step()
	return perigee.RoundSummary{Round: rep.Round, Blocks: rep.Blocks, ConnectionsDropped: rep.Dropped, ConnectionsAdded: rep.Added}, err
}
func (s scaleNet) BroadcastDelays(frac float64) ([]time.Duration, error) {
	return s.e.engine.Delays(frac, s.e.landmarks)
}
func (s scaleNet) OutNeighbors(v int) []int { return s.e.engine.Table().OutNeighbors(v) }

// simScale runs the scale stack at n=20000: streaming latency (Auto),
// ObservationWindow 20, λ at 64 landmarks, default worker count, driven
// round by round. The first rounds run twice, on a Workers=1 twin, to
// check determinism.
func simScale(r *run) (*outcome, error) {
	out := newOutcome()
	var st simStats
	seed := subSeed(r.seed, "sim-scale", 0)
	pipe := r.tr.begin("pipeline", -1)
	t0 := time.Now()

	// Two set-ups: the measured network and its Workers=1 twin, which
	// repeats the first round to check determinism.
	var envs [2]*scaleEnv
	for i := range envs {
		t := time.Now()
		env, err := buildScale(r, out, pipe, seed, i) // workers 0 (default), then 1
		if err != nil {
			return nil, err
		}
		st.setups = append(st.setups, time.Since(t).Seconds())
		envs[i] = env
	}
	main, twin := envs[0], envs[1]
	net := scaleNet{main}
	l0, err := timedDelays(r, out, &st, pipe, net)
	if err != nil {
		return nil, err
	}
	if _, err := timedStep(r, out, &st, pipe, net); err != nil {
		return nil, err
	}
	if _, err := twin.engine.Step(); err != nil {
		return nil, err
	}
	// λ is compared at a few landmarks: a one-worker pass over all 64
	// would cost more than the rest of the check.
	few := main.landmarks[:4]
	lm, err := main.engine.Delays(coverage, few)
	if err != nil {
		return nil, err
	}
	lt, err := twin.engine.Delays(coverage, few)
	if err != nil {
		return nil, err
	}
	dm := adjacencyDigest(scaleNodes, net.OutNeighbors)
	dt := adjacencyDigest(scaleNodes, scaleNet{twin}.OutNeighbors)
	out.checks.add("workers1.adjacency", dm == dt, "digest after 1 round %x vs %x", dm[:6], dt[:6])
	out.checks.add("workers1.lambda", slices.Equal(lm, lt), "%d landmark λ values compared", len(lm))
	envs[1], twin = nil, nil

	for rounds := 1; rounds < r.scaled(scaleRounds); rounds++ {
		traced, err := timedStep(r, out, &st, pipe, net)
		if err != nil {
			return nil, err
		}
		if traced {
			replayScale(r, out, pipe, main, seed, rounds)
		}
	}
	lN, err := timedDelays(r, out, &st, pipe, net)
	if err != nil {
		return nil, err
	}
	st.runs = append(st.runs, time.Since(t0).Seconds())
	r.tr.end(pipe)
	out.e2e["heap_mb"] = retainedHeapMB()

	p0, pN := quantile(durationsMs(l0), 0.9), quantile(durationsMs(lN), 0.9)
	st.lambda0 = append(st.lambda0, p0)
	st.lambda1 = append(st.lambda1, pN)
	out.checks.add("converged", pN < p0, "p90 λ %.1f ms (static random reference) -> %.1f ms", p0, pN)
	checkDegrees(&out.checks, "final", scaleNodes, net.OutNeighbors)
	st.finish(out, "lambda_p90")
	return out, nil
}

// replayScale replays a sim-scale round's broadcasts and arrival passes on
// the streaming-latency topology snapshot, and times the streaming delay
// model itself.
func replayScale(r *run, out *outcome, parent int, env *scaleEnv, seed uint64, round int) {
	tbl := env.engine.Table()
	outs := make([][]int, scaleNodes)
	for v := range outs {
		outs[v] = tbl.OutNeighbors(v)
	}
	sim, err := netsim.New(netsim.Config{Adj: undirected(outs), Latency: env.lat, Forward: make([]time.Duration, scaleNodes), LatencyMode: latency.Streaming})
	if err != nil {
		return
	}
	rnd := rand.New(rand.NewPCG(seed, uint64(round)))
	replayLayers(r, out, parent, sim, outs, rnd.Perm(scaleNodes)[:4], false)

	pairs := make([][2]int, 4096)
	for i := range pairs {
		pairs[i] = [2]int{rnd.IntN(scaleNodes), rnd.IntN(scaleNodes)}
	}
	var sink time.Duration
	start := time.Now()
	m := measure(len(pairs), 8, func(i int) { sink += env.lat.Delay(pairs[i][0], pairs[i][1]) })
	r.tr.add("latency.Delay", parent, start, time.Since(start))
	out.addSample("latency.delay_ns", m.ns)
	_ = sink
}
