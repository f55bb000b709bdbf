package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"github.com/perigee-net/perigee/node"
)

// live-relay sizes. Nodes run on 127.0.0.1 with no injected latency and
// no faults, so every figure is the node's own processing and the
// loopback stack.
const (
	liveNodes     = 12
	liveOutDegree = 4
	liveNeed      = (liveNodes*9 + 9) / 10 // 90% of nodes, the miner included
	liveSetups    = 5                      // cluster builds per run

	pacedRate     = 100             // blocks per second, open loop
	pacedPhase    = 6 * time.Second // at --seconds 10
	pacedDeadline = 2 * time.Second // a paced block later than this failed
	largeEvery    = 10              // one block in ten is large
	smallTxs      = 16
	smallTxBytes  = 256
	largeTxs      = 64
	largeTxBytes  = 4096

	// Drain bursts stay well below the send-queue overload threshold (a
	// 200-block burst occasionally loses a block) and give the drain rate. Overload bursts, run last, are sized well above it
	// (a few hundred back-to-back blocks at the time of writing), so the
	// relay's known defect — a full peer queue silently drops an INV that
	// nothing re-announces — shows as blocks lost.
	drainBursts    = 15
	drainBlocks    = 100
	overloadBursts = 1
	overloadBlocks = 1000
	burstSettle    = 5 * time.Second // a burst block not at 90% by then is lost
	pollInterval   = 50 * time.Microsecond
)

// blockTrack follows one mined block until 90% of nodes hold it.
type blockTrack struct {
	id       node.BlockID
	due      time.Time
	miner    int
	large    bool
	traced   bool   // mined under a span (see run.opTracer)
	holders  uint32 // bitmask over nodes
	count    int
	firstHop time.Duration // first non-miner holder, from due
	reached  time.Duration // 90% of nodes, from due; -1 until then
	done     bool
}

// tracker polls every node's store for the pending blocks, every
// pollInterval while any is pending, and blocks until one is added
// otherwise. It sleeps with time.Sleep so both processors stay free for
// the nodes: a thread parked in a sleeping syscall holds its processor
// until the runtime retakes it, and yielding in a loop starves the network
// poller. In a process this busy the runtime's timers fire well within a
// block's relay time.
type tracker struct {
	nodes []*node.Node

	mu       sync.Mutex
	pending  []*blockTrack
	wake     chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func newTracker(nodes []*node.Node) *tracker {
	t := &tracker{nodes: nodes, wake: make(chan struct{}, 1), stop: make(chan struct{})}
	t.wg.Add(1)
	go t.loop()
	return t
}

func (t *tracker) add(b *blockTrack) {
	b.reached = -1
	b.holders = 1 << b.miner
	b.count = 1
	t.mu.Lock()
	t.pending = append(t.pending, b)
	t.mu.Unlock()
	select {
	case t.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

func (t *tracker) loop() {
	defer t.wg.Done()
	for {
		select {
		case <-t.stop:
			return
		case <-t.wake:
		}
		for t.poll() > 0 {
			time.Sleep(pollInterval)
		}
	}
}

// poll checks the pending blocks once and returns how many remain.
func (t *tracker) poll() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	keep := t.pending[:0]
	for _, b := range t.pending {
		for j, n := range t.nodes {
			if b.holders&(1<<j) != 0 || !n.HasBlock(b.id) {
				continue
			}
			b.holders |= 1 << j
			b.count++
			if b.firstHop == 0 {
				b.firstHop = now.Sub(b.due)
			}
		}
		if b.count >= liveNeed {
			b.reached = now.Sub(b.due)
			b.done = true
			continue
		}
		keep = append(keep, b)
	}
	t.pending = keep
	return len(keep)
}

// waitIdle blocks until no block is pending or the deadline passes, and
// drops blocks still pending then.
func (t *tracker) waitIdle(deadline time.Time) {
	for time.Now().Before(deadline) {
		t.mu.Lock()
		n := len(t.pending)
		t.mu.Unlock()
		if n == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.mu.Lock()
	t.pending = t.pending[:0]
	t.mu.Unlock()
}

func (t *tracker) close() {
	t.stopOnce.Do(func() { close(t.stop) })
	t.wg.Wait()
}

// startCluster builds, starts and wires liveNodes nodes: every node knows
// every address and dials the out-neighbors of a seeded random topology.
func startCluster(seed uint64) ([]*node.Node, error) {
	nodes := make([]*node.Node, 0, liveNodes)
	stopAll := func() {
		for _, n := range nodes {
			n.Stop()
		}
	}
	for i := 0; i < liveNodes; i++ {
		n, err := node.New(
			node.WithNodeID(uint64(i+1)),
			node.WithSeed(subSeed(seed, "node", i)),
			node.WithListen("127.0.0.1:0"),
			node.WithNetwork("perfbench"),
			node.WithOutDegree(liveOutDegree),
		)
		if err != nil {
			stopAll()
			return nil, err
		}
		nodes = append(nodes, n)
		if err := n.Start(); err != nil {
			stopAll()
			return nil, err
		}
	}
	for _, n := range nodes {
		for _, m := range nodes {
			if n != m {
				n.AddAddresses(m.Addr())
			}
		}
	}
	for i, outs := range planTopology(rand.New(rand.NewPCG(seed, 0x746f706f))) { // "topo"
		for _, j := range outs {
			if err := nodes[i].Connect(nodes[j].Addr()); err != nil {
				stopAll()
				return nil, fmt.Errorf("node %d dialing node %d: %w", i, j, err)
			}
		}
	}
	return nodes, nil
}

// planTopology draws a random initial topology: liveOutDegree outbound
// links per node, no pair linked twice in either direction (the node
// refuses duplicate connections). A draw that strands a node is redrawn.
func planTopology(rnd *rand.Rand) [][]int {
	for {
		outs := make([][]int, liveNodes)
		linked := make(map[[2]int]bool)
		ok := true
		for i := range outs {
			for _, j := range rnd.Perm(liveNodes) {
				if len(outs[i]) == liveOutDegree {
					break
				}
				if j != i && !linked[[2]int{min(i, j), max(i, j)}] {
					linked[[2]int{min(i, j), max(i, j)}] = true
					outs[i] = append(outs[i], j)
				}
			}
			ok = ok && len(outs[i]) == liveOutDegree
		}
		if ok {
			return outs
		}
	}
}

// burst mines count small blocks back to back on seeded random miners and
// waits until each is at 90% of nodes or lost. It returns the drain rate —
// 90% of the burst over the time until that many blocks were at 90% of
// nodes, which one straggler cannot swing the way the last block would —
// and the number lost.
func burst(r *run, tr *tracker, nodes []*node.Node, rnd *rand.Rand, count int) (rate float64, lost int) {
	bodies := make([][][]byte, count)
	miners := make([]int, count)
	for i := range bodies {
		bodies[i] = txs(rnd, smallTxs, smallTxBytes)
		miners[i] = rnd.IntN(liveNodes)
	}
	sp := r.tr.begin("burst", -1)
	defer r.tr.end(sp)
	t0 := time.Now()
	tracks := make([]*blockTrack, 0, count)
	for i := range bodies {
		id, err := nodes[miners[i]].MineBlock(bodies[i])
		if err != nil {
			lost++
			continue
		}
		b := &blockTrack{id: id, due: time.Now(), miner: miners[i]}
		tr.add(b)
		tracks = append(tracks, b)
	}
	tr.waitIdle(t0.Add(burstSettle))
	var at []float64 // seconds from the burst's start to 90% of nodes
	for _, b := range tracks {
		if !b.done {
			lost++
			continue
		}
		at = append(at, b.due.Add(b.reached).Sub(t0).Seconds())
	}
	drained := count * 9 / 10
	if len(at) >= drained {
		slices.Sort(at)
		rate = float64(drained) / at[drained-1]
	}
	return rate, lost
}

func stopCluster(nodes []*node.Node) {
	var wg sync.WaitGroup
	for _, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.Stop()
		}()
	}
	wg.Wait()
}

// waitUntil sleeps until about a millisecond before t, then in
// pollInterval steps until t.
func waitUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		time.Sleep(pollInterval)
	}
}

// txs builds a block body of count transactions of size random bytes.
func txs(rnd *rand.Rand, count, size int) [][]byte {
	out := make([][]byte, count)
	for i := range out {
		tx := make([]byte, size)
		for k := 0; k < size; k += 8 {
			v := rnd.Uint64()
			for b := 0; b < 8 && k+b < size; b++ {
				tx[k+b] = byte(v >> (8 * b))
			}
		}
		out[i] = tx
	}
	return out
}

// liveRelay measures block relay across a live loopback cluster: an open
// loop paced phase of mixed small and large blocks, then back-to-back
// bursts beyond the send-queue threshold, run last so their slow-consumer
// disconnects cannot reach the paced figures.
func liveRelay(r *run) (*outcome, error) {
	out := newOutcome()
	var setups []float64
	var nodes []*node.Node
	for i := 0; i < liveSetups; i++ {
		sp := r.tr.begin("cluster.setup", -1)
		t := time.Now()
		c, err := startCluster(subSeed(r.seed, "cluster", i))
		setups = append(setups, time.Since(t).Seconds())
		r.tr.end(sp)
		if err != nil {
			return nil, err
		}
		if i < liveSetups-1 {
			stopCluster(c)
		} else {
			nodes = c
		}
	}
	defer stopCluster(nodes)
	out.e2e["setup_s"] = median(setups)
	out.report["setup_s"] = out.e2e["setup_s"]

	rnd := rand.New(rand.NewPCG(r.seed, 0x6c697665)) // "live"
	total := r.scaled(int(pacedPhase.Seconds() * pacedRate))
	type plan struct {
		miner int
		large bool
		body  [][]byte
	}
	plans := make([]plan, total)
	largeSlot := 0
	for i := range plans {
		if i%largeEvery == 0 {
			largeSlot = rnd.IntN(largeEvery) // exactly one large block per ten, at a seeded position
		}
		large := i%largeEvery == largeSlot
		p := plan{miner: rnd.IntN(liveNodes), large: large}
		if large {
			p.body = txs(rnd, largeTxs, largeTxBytes)
		} else {
			p.body = txs(rnd, smallTxs, smallTxBytes)
		}
		plans[i] = p
	}

	tr := newTracker(nodes)
	defer tr.close()
	tracks := make([]*blockTrack, 0, total)
	var mineNs []float64
	var lateMs []float64
	interval := time.Second / pacedRate
	start := time.Now().Add(20 * time.Millisecond)
	for i, p := range plans {
		due := start.Add(time.Duration(i) * interval)
		waitUntil(due)
		lateMs = append(lateMs, ms(time.Since(due)))
		opTr := r.opTracer(i)
		sp := opTr.begin("p2p.MineBlock", -1)
		t := time.Now()
		id, err := nodes[p.miner].MineBlock(p.body)
		mineNs = append(mineNs, float64(time.Since(t)))
		opTr.end(sp)
		out.attempted++
		if err != nil {
			out.failed++
			continue
		}
		b := &blockTrack{id: id, due: due, miner: p.miner, large: p.large, traced: opTr != nil}
		tr.add(b)
		tracks = append(tracks, b)
	}
	tr.waitIdle(time.Now().Add(pacedDeadline))

	var small, large, firstHop []float64
	for _, b := range tracks {
		if !b.done || b.reached > pacedDeadline {
			out.failed++
			continue
		}
		firstHop = append(firstHop, ms(b.firstHop))
		if b.large {
			large = append(large, ms(b.reached))
		} else {
			small = append(small, ms(b.reached))
			if r.tr != nil {
				out.addOp(b.traced, ms(b.reached))
				r.tr.add("block.relay90", -1, b.due, b.reached)
			}
		}
	}
	// Every paced block must reach every node once the phase settles, and
	// the nodes must agree on the chain height.
	settle := time.Now().Add(3 * time.Second)
	missing := 0
	for {
		missing = 0
		for _, b := range tracks {
			for _, n := range nodes {
				if !n.HasBlock(b.id) {
					missing++
				}
			}
		}
		if missing == 0 || time.Now().After(settle) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	out.checks.add("paced.all_nodes", missing == 0 && len(tracks) == total, "%d of %d blocks mined, %d (block, node) pairs missing", len(tracks), total, missing)
	h0 := nodes[0].Height()
	agree := true
	for _, n := range nodes {
		agree = agree && n.Height() == h0
	}
	out.checks.add("paced.heights_agree", agree, "height %d at node 0", h0)

	// The figures below are all taken; the heap left after a collection
	// is the cluster's memory footprint with every paced block stored.
	out.e2e["heap_mb"] = retainedHeapMB()

	var rates []float64
	for k := 0; k < drainBursts; k++ {
		rate, lost := burst(r, tr, nodes, rnd, drainBlocks)
		rates = append(rates, rate)
		out.attempted += drainBlocks
		out.failed += lost
	}
	lost := 0
	for k := 0; k < overloadBursts; k++ {
		_, l := burst(r, tr, nodes, rnd, overloadBlocks)
		lost += l
	}

	drops, outbound := 0, 0
	for _, n := range nodes {
		drops += n.Resilience().SlowConsumerDrops
		outbound += n.OutboundCount()
	}
	out.e2e["op_p50_ms"] = median(small)
	out.e2e["op_p90_ms"] = quantile(small, 0.9)
	out.e2e["aux_p50_ms"] = median(large)
	out.e2e["rate_per_s"] = median(rates)
	out.report["block_p50_ms"] = out.e2e["op_p50_ms"]
	out.report["block_p90_ms"] = out.e2e["op_p90_ms"]
	out.report["block_p99_ms"] = quantile(small, 0.99)
	out.report["large_block_p50_ms"] = out.e2e["aux_p50_ms"]
	out.report["small_blocks"] = float64(len(small))
	out.report["large_blocks"] = float64(len(large))
	out.report["burst_blocks_per_s"] = out.e2e["rate_per_s"]
	out.report["overload_lost_share"] = float64(lost) / float64(overloadBursts*overloadBlocks)
	out.report["generator_late_p99_ms"] = quantile(lateMs, 0.99)
	out.layers["p2p.mine_ns"] = median(mineNs)
	out.layers["p2p.first_hop_ms"] = median(firstHop)
	out.layers["p2p.lost_blocks"] = float64(lost)
	out.layers["p2p.slow_consumer_drops"] = float64(drops)
	out.layers["p2p.outbound_after_burst"] = float64(outbound)

	if r.tr != nil {
		// Single-layer timings run after the cluster stops, so no node
		// goroutine allocates while allocations are counted.
		tr.close()
		stopCluster(nodes)
		if err := measureCodecLayers(r, out, rnd); err != nil {
			return nil, err
		}
	}
	return out, nil
}
