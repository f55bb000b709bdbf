package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"time"

	"github.com/perigee-net/perigee/internal/chain"
	"github.com/perigee-net/perigee/internal/p2p"
	"github.com/perigee-net/perigee/internal/wire"
)

// Fixed iteration counts for single-layer timings. They never adapt to
// the machine, so allocation counts compare exactly across commits.
const (
	microSmallIters = 2000 // per timing of a small message or call
	microLargeIters = 200  // per timing of a 256 KiB block
	microBatches    = 10   // timing batches; the median batch is reported
	bookEntries     = p2p.DefaultBookCap
)

// measureCodecLayers times the layers a relayed block passes through —
// the wire codec per message type, block validation and hashing, the
// chain store, and the address book at capacity — on inputs shaped like
// the live-relay blocks.
func measureCodecLayers(r *run, out *outcome, rnd *rand.Rand) error {
	genesis := chain.NewGenesis("perfbench")
	small := chain.NewBlock(genesis, txs(rnd, smallTxs, smallTxBytes), time.Unix(0, 0), rnd.Uint64())
	large := chain.NewBlock(genesis, txs(rnd, largeTxs, largeTxBytes), time.Unix(0, 0), rnd.Uint64())
	hashes := []chain.Hash{small.Header.Hash()}

	msgs := []struct {
		name  string
		msg   wire.Message
		iters int
	}{
		{"inv", &wire.Inv{Hashes: hashes}, microSmallIters},
		{"getdata", &wire.GetData{Hashes: hashes}, microSmallIters},
		{"block_small", &wire.Block{Block: small}, microSmallIters},
		{"block_large", &wire.Block{Block: large}, microLargeIters},
	}
	for _, m := range msgs {
		var buf bytes.Buffer
		if err := wire.Write(&buf, m.msg); err != nil {
			return fmt.Errorf("wire %s: %w", m.name, err)
		}
		frame := bytes.Clone(buf.Bytes())
		if _, err := wire.Read(bytes.NewReader(frame)); err != nil {
			return fmt.Errorf("wire %s: %w", m.name, err)
		}
		start := time.Now()
		w := measure(m.iters, microBatches, func(int) {
			buf.Reset()
			_ = wire.Write(&buf, m.msg) // checked above; same message every time
		})
		rd := bytes.NewReader(frame)
		rm := measure(m.iters, microBatches, func(int) {
			rd.Reset(frame)
			_, _ = wire.Read(rd)
		})
		r.tr.add("wire."+m.name, -1, start, time.Since(start))
		out.layers["wire.write_ns."+m.name] = w.ns
		out.layers["wire.read_ns."+m.name] = rm.ns
		out.layers["wire.allocs."+m.name] = w.allocs + rm.allocs
		out.layers["wire.bytes."+m.name] = float64(len(frame))
	}

	start := time.Now()
	out.layers["chain.check_block_ns.small"] = measure(microSmallIters, microBatches, func(int) { _ = chain.CheckBlock(small) }).ns
	out.layers["chain.check_block_ns.large"] = measure(microLargeIters, microBatches, func(int) { _ = chain.CheckBlock(large) }).ns
	out.layers["chain.header_hash_ns"] = measure(microSmallIters, microBatches, func(int) { _ = large.Header.Hash() }).ns
	enc, err := large.Encode()
	if err != nil {
		return err
	}
	out.layers["chain.encode_ns.large"] = measure(microLargeIters, microBatches, func(int) { _, _ = large.Encode() }).ns
	out.layers["chain.decode_ns.large"] = measure(microLargeIters, microBatches, func(int) { _, _ = chain.DecodeBlock(enc) }).ns

	// Store.Add on a growing chain of small blocks, built beforehand.
	store, err := chain.NewStore(genesis)
	if err != nil {
		return err
	}
	chainBlocks := make([]*chain.Block, microSmallIters)
	prev := genesis
	body := small.Txs
	for i := range chainBlocks {
		chainBlocks[i] = chain.NewBlock(prev, body, time.Unix(int64(i), 0), uint64(i))
		prev = chainBlocks[i]
	}
	addFailed := 0
	out.layers["chain.store_add_ns"] = measure(len(chainBlocks), microBatches, func(i int) {
		if store.Add(chainBlocks[i]) != nil {
			addFailed++
		}
	}).ns
	out.checks.add("chain.store_add", addFailed == 0 && store.Height() == uint64(len(chainBlocks)), "%d adds failed, height %d", addFailed, store.Height())
	r.tr.add("chain", -1, start, time.Since(start))

	// Address book at capacity: every Add evicts, Gossipable walks the
	// full book.
	start = time.Now()
	book := p2p.NewAddrBook()
	for i := 0; i < bookEntries; i++ {
		book.Add(fmt.Sprintf("10.%d.%d.%d:8333", i>>16&255, i>>8&255, i&255))
	}
	fresh := make([]string, microSmallIters)
	for i := range fresh {
		fresh[i] = fmt.Sprintf("172.16.%d.%d:8333", i>>8&255, i&255)
	}
	out.layers["p2p.addrbook_add_ns"] = measure(len(fresh), microBatches, func(i int) { book.Add(fresh[i]) }).ns
	out.layers["p2p.addrbook_gossipable_ns"] = measure(microLargeIters, microBatches, func(int) { _ = book.Gossipable() }).ns
	out.checks.add("p2p.addrbook_cap", book.Len() == bookEntries, "book holds %d of cap %d", book.Len(), bookEntries)
	r.tr.add("p2p.AddrBook", -1, start, time.Since(start))
	return nil
}
