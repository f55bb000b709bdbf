package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	"github.com/perigee-net/perigee/internal/experiments"
	"github.com/perigee-net/perigee/internal/serve"
	"github.com/perigee-net/perigee/internal/trace"
)

// serve-jobs sizes. The open loop runs well below the service's capacity
// (about three jobs per second for this mix on two cores): a traced
// figure3a job, the longest, ends before the next submission is due.
const (
	serveSetups   = 51
	serveRate     = 1 // submissions per second
	serveCycles   = 3 // repetitions of jobCycle in the open loop at --seconds 10
	serveClients  = 2 // the client's connection limit
	drainPerKind  = 3 // back-to-back jobs per distinct kind in the drain phase
	jobNodes      = 100
	jobRounds     = 4
	traceEncIters = 50
)

// jobCycle is the submission mix, shuffled per cycle: a quarter of the
// submissions repeat an earlier request and must be cache hits. The
// counts put the median inside the withholding jobs and the p90 inside
// the traced figure3a jobs, away from the boundaries between job kinds.
var jobCycle = []string{
	"figure3a", "figure3a",
	"adversary-withholding", "adversary-withholding", "adversary-withholding",
	"forks",
	"", "", // resubmissions
}

type jobRequest struct {
	Scenario string         `json:"scenario"`
	Quick    bool           `json:"quick"`
	Options  map[string]any `json:"options"`
}

func newJobRequest(scenario string, seed uint64) jobRequest {
	opts := map[string]any{"nodes": jobNodes, "rounds": jobRounds, "seed": seed}
	if scenario == "figure3a" {
		opts["trace_level"] = "decisions"
		opts["counterfactual_k"] = 2
	}
	return jobRequest{Scenario: scenario, Quick: true, Options: opts}
}

// jobRecord is one submission as the client saw it.
type jobRecord struct {
	req      jobRequest
	resubmit bool
	due      time.Time
	posted   time.Time // when the POST returned
	done     time.Time // when the event stream ended on a terminal status
	view     serve.JobView
	refused  bool
	err      error

	events       int
	eventBytes   int
	perArm       map[string]int
	traceRecords int
	keepTraces   bool     // keep the raw trace lines, for timing their encoding
	traceLines   [][]byte // kept trace event lines
	lastKind     string
	status       string
	resultJSON   []byte
}

// eventKindArm reads the kind and arm fields at the head of an NDJSON
// event line, which serve.Event encodes first: {"kind":"...","arm":"...".
func eventKindArm(line []byte) (kind, arm string) {
	rest, ok := bytes.CutPrefix(line, []byte(`{"kind":"`))
	if !ok {
		return "", ""
	}
	k, rest, _ := bytes.Cut(rest, []byte(`"`))
	if rest, ok = bytes.CutPrefix(rest, []byte(`,"arm":"`)); ok {
		a, _, _ := bytes.Cut(rest, []byte(`"`))
		arm = string(a)
	}
	return string(k), arm
}

// client is the benchmark's HTTP client of the service.
type client struct {
	base string
	http *http.Client
}

func (c *client) submit(ctx context.Context, req jobRequest) (serve.JobView, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return serve.JobView{}, 0, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return serve.JobView{}, 0, err
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		return serve.JobView{}, 0, err
	}
	defer resp.Body.Close()
	var v serve.JobView
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		err = json.NewDecoder(resp.Body).Decode(&v)
	} else {
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	}
	return v, resp.StatusCode, err
}

// follow reads the job's NDJSON event stream to its end, which the service
// reaches once the job is terminal.
func (c *client) follow(ctx context.Context, rec *jobRecord) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+rec.view.ID+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	rec.perArm = map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		rec.events++
		rec.eventBytes += len(line) + 1
		// Only the event kind and arm are needed here; decoding every
		// line would put the client's JSON work on the cores the service
		// is being measured on.
		kind, arm := eventKindArm(line)
		rec.lastKind = kind
		switch kind {
		case "round":
			rec.perArm[arm]++
		case "trace":
			rec.traceRecords++
			if rec.keepTraces {
				rec.traceLines = append(rec.traceLines, bytes.Clone(line))
			}
		case "status":
			var ev serve.Event
			if err := json.Unmarshal(line, &ev); err != nil {
				return fmt.Errorf("events: %w", err)
			}
			rec.status = ev.Status
		}
	}
	rec.done = time.Now()
	return sc.Err()
}

// result fetches the finished job and keeps its result as JSON.
func (c *client) result(ctx context.Context, rec *jobRecord) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+rec.view.ID, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var v struct {
		Status string          `json:"status"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return err
	}
	if v.Status != serve.StatusDone {
		return fmt.Errorf("job %s ended %s", rec.view.ID, v.Status)
	}
	rec.resultJSON = v.Result
	return nil
}

// do submits one request and follows it to its terminal status.
func (c *client) do(ctx context.Context, tr *tracer, rec *jobRecord) {
	root := tr.begin("job", -1)
	defer tr.end(root)
	sp := tr.begin("http.submit", root)
	v, code, err := c.submit(ctx, rec.req)
	tr.end(sp)
	rec.posted = time.Now()
	switch {
	case code == http.StatusServiceUnavailable:
		rec.refused = true
		return
	case err != nil:
		rec.err = err
		return
	case code != http.StatusOK && code != http.StatusAccepted:
		rec.err = fmt.Errorf("submit: HTTP %d", code)
		return
	}
	rec.view = v
	sp = tr.begin("http.events", root)
	err = c.follow(ctx, rec)
	tr.end(sp)
	if err != nil {
		rec.err = err
		return
	}
	sp = tr.begin("http.result", root)
	rec.err = c.result(ctx, rec)
	tr.end(sp)
}

// service is one running serve.Server behind its Handler on loopback.
type service struct {
	srv  *serve.Server
	http *http.Server
	done chan error
	addr string
}

func startService(ctx context.Context, hc *http.Client) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{srv: serve.New(serve.Config{}), done: make(chan error, 1), addr: ln.Addr().String()}
	s.http = &http.Server{Handler: s.srv.Handler()}
	go func() { s.done <- s.http.Serve(ln) }()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+s.addr+"/healthz", nil)
	if err == nil {
		var resp *http.Response
		if resp, err = hc.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
			}
		}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop closes the listener and connections, then lets the workers drain.
func (s *service) stop() {
	_ = s.http.Close() // Serve returns ErrServerClosed, collected below
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // jobs are all terminal by now; a timeout would only delay exit
}

// serveJobs drives perigee-serve's HTTP surface: an open loop of a seeded
// job mix at a fixed rate below capacity, then a back-to-back batch for
// the drain rate, each job followed to its terminal status.
func serveJobs(r *run) (*outcome, error) {
	out := newOutcome()
	ctx := context.Background()
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}}
	defer hc.CloseIdleConnections()

	var setups []float64
	var svc *service
	for i := 0; i < serveSetups; i++ {
		sp := r.tr.begin("serve.setup", -1)
		t := time.Now()
		s, err := startService(ctx, hc)
		setups = append(setups, time.Since(t).Seconds())
		r.tr.end(sp)
		if err != nil {
			return nil, err
		}
		if i < serveSetups-1 {
			s.stop()
		} else {
			svc = s
		}
	}
	defer svc.stop()
	c := &client{base: "http://" + svc.addr, http: hc}

	// The open-loop schedule, generated before timing starts.
	rnd := rand.New(rand.NewPCG(r.seed, 0x73657276)) // "serv"
	var recs []*jobRecord
	var distinct []jobRequest
	for cycle := 0; cycle < r.scaled(serveCycles); cycle++ {
		kinds := append([]string(nil), jobCycle...)
		rnd.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		if len(distinct) == 0 {
			// Nothing to repeat yet: open with the first fresh job.
			j := slices.IndexFunc(kinds, func(k string) bool { return k != "" })
			kinds[0], kinds[j] = kinds[j], kinds[0]
		}
		for _, k := range kinds {
			if k == "" {
				recs = append(recs, &jobRecord{req: distinct[rnd.IntN(len(distinct))], resubmit: true})
				continue
			}
			req := newJobRequest(k, rnd.Uint64())
			distinct = append(distinct, req)
			recs = append(recs, &jobRecord{req: req, keepTraces: r.tr != nil && k == "figure3a"})
		}
	}

	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for i, rec := range recs {
		rec.due = start.Add(time.Duration(i) * time.Second / serveRate)
		time.Sleep(time.Until(rec.due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.do(ctx, r.opTracer(i), rec)
		}()
	}
	wg.Wait()

	// Drain phase: distinct fresh jobs submitted back to back.
	var batch []*jobRecord
	for _, k := range []string{"figure3a", "adversary-withholding", "forks"} {
		for i := 0; i < drainPerKind; i++ {
			batch = append(batch, &jobRecord{req: newJobRequest(k, rnd.Uint64())})
		}
	}
	rnd.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	sp := r.tr.begin("drain", -1)
	t0 := time.Now()
	for _, rec := range batch {
		rec.due = time.Now()
		v, code, err := c.submit(ctx, rec.req)
		rec.posted, rec.view = time.Now(), v
		switch {
		case code == http.StatusServiceUnavailable:
			rec.refused = true
		case err == nil && code != http.StatusAccepted:
			err = fmt.Errorf("submit: HTTP %d", code)
		}
		rec.err = err
	}
	// One worker finishes the batch in submission order; following the
	// jobs in that order holds one connection at a time.
	var lastDone time.Time
	for _, rec := range batch {
		if rec.refused || rec.err != nil {
			continue
		}
		if rec.err = c.follow(ctx, rec); rec.err == nil {
			rec.err = c.result(ctx, rec)
		}
		lastDone = rec.done
	}
	r.tr.end(sp)
	out.e2e["heap_mb"] = retainedHeapMB()

	if err := checkJobs(r, out, recs, batch); err != nil {
		return nil, err
	}

	var all, traced []float64
	for i, rec := range recs {
		if rec.refused || rec.err != nil {
			continue
		}
		d := ms(rec.done.Sub(rec.due))
		all = append(all, d)
		if rec.req.Scenario == "figure3a" {
			traced = append(traced, d)
		}
		if r.tr != nil {
			out.addOp(r.opTracer(i) != nil, d)
		}
	}
	out.e2e["setup_s"] = median(setups)
	out.e2e["op_p50_ms"] = median(all)
	out.e2e["op_p90_ms"] = quantile(all, 0.9)
	out.e2e["aux_p50_ms"] = median(traced)
	out.e2e["rate_per_s"] = float64(len(batch)) / lastDone.Sub(t0).Seconds()
	out.report["setup_s"] = out.e2e["setup_s"]
	out.report["job_p50_s"] = out.e2e["op_p50_ms"] / 1e3
	out.report["job_p90_s"] = out.e2e["op_p90_ms"] / 1e3
	out.report["traced_job_p50_s"] = out.e2e["aux_p50_ms"] / 1e3
	out.report["drain_jobs_per_s"] = out.e2e["rate_per_s"]
	out.report["jobs"] = float64(len(recs))
	return out, nil
}

// checkJobs counts failures and checks the service's outputs: cache hits,
// traced event counts, and one result per scenario against a direct
// experiments.Run of the same options. It also derives the service's
// per-layer figures from what the client saw.
func checkJobs(r *run, out *outcome, recs, batch []*jobRecord) error {
	byKey := map[string]*jobRecord{}
	hits, refused := 0, 0
	var waits, runs, events, eventBytes, records []float64
	var prevDone time.Time
	directDone := map[string]bool{}
	for i, rec := range append(append([]*jobRecord(nil), recs...), batch...) {
		openLoop := i < len(recs)
		out.attempted++
		if rec.refused {
			refused++
			out.failed++
			continue
		}
		if rec.err != nil || rec.status != serve.StatusDone {
			out.failed++
			out.checks.add("job."+rec.view.ID, false, "status %q, error %v", rec.status, rec.err)
			continue
		}
		key, err := json.Marshal(rec.req)
		if err != nil {
			return err
		}
		if rec.resubmit {
			hits++
			first := byKey[string(key)]
			ok := rec.view.CacheHit && first != nil && first.view.ID == rec.view.ID && bytes.Equal(first.resultJSON, rec.resultJSON)
			out.checks.add("cache_hit."+rec.view.ID, ok, "cache_hit=%v, same result %v", rec.view.CacheHit, first != nil && bytes.Equal(first.resultJSON, rec.resultJSON))
			continue
		}
		byKey[string(key)] = rec
		if rec.view.CacheHit {
			out.checks.add("fresh."+rec.view.ID, false, "a fresh request was answered from cache")
		}
		// One worker runs jobs in submission order: a job starts when it
		// was posted or when the previous job finished, whichever is later.
		startAt := rec.posted
		if prevDone.After(startAt) {
			startAt = prevDone
		}
		if openLoop {
			waits = append(waits, startAt.Sub(rec.posted).Seconds())
		}
		runs = append(runs, rec.done.Sub(startAt).Seconds())
		prevDone = rec.done
		events = append(events, float64(rec.events))
		eventBytes = append(eventBytes, float64(rec.eventBytes))
		if rec.req.Scenario == "figure3a" {
			records = append(records, float64(rec.traceRecords))
			checkTracedEvents(&out.checks, rec)
		}
		if !directDone[rec.req.Scenario] {
			directDone[rec.req.Scenario] = true
			if err := checkDirect(r, out, rec); err != nil {
				return err
			}
		}
	}
	// Open-loop waits are mostly zero below capacity, and most jobs stream
	// only their status event, so these are means rather than medians.
	out.layers["serve.queue_wait_s"] = mean(waits)
	out.layers["serve.run_s"] = median(runs)
	out.layers["serve.cache_hit_ratio"] = float64(hits) / float64(len(recs))
	out.layers["serve.events_per_job"] = mean(events)
	out.layers["serve.event_bytes_per_job"] = mean(eventBytes)
	out.layers["serve.refused"] = float64(refused)
	out.layers["trace.records_per_job"] = median(records)
	out.report["refused"] = float64(refused)
	out.report["cache_hits"] = float64(hits)

	// Encoding the trace records of one traced job, per record.
	for _, rec := range recs {
		if len(rec.traceLines) == 0 {
			continue
		}
		traces := make([]trace.Record, len(rec.traceLines))
		for i, line := range rec.traceLines {
			var ev serve.Event
			if err := json.Unmarshal(line, &ev); err != nil || ev.Trace == nil {
				return fmt.Errorf("trace event of %s: %v", rec.view.ID, err)
			}
			traces[i] = *ev.Trace
		}
		var buf bytes.Buffer
		m := measure(traceEncIters, 5, func(int) {
			buf.Reset()
			_ = trace.WriteNDJSON(&buf, traces) // writes to memory
		})
		out.layers["trace.encode_ns"] = m.ns / float64(len(traces))
		break
	}
	return nil
}

// checkTracedEvents compares a traced job's streamed events with its batch
// configuration: trials × rounds round events per arm (× round blocks for
// the UCB arm, which updates per block), then exactly one terminal status.
func checkTracedEvents(c *checks, rec *jobRecord) {
	ok := len(rec.perArm) > 0 && rec.lastKind == "status" && rec.traceRecords > 0
	for arm, n := range rec.perArm {
		want := 1 * jobRounds // quick options run one trial
		if arm == "Perigee-UCB" {
			want *= experiments.ShortOptions().RoundBlocks
		}
		if n != want {
			ok = false
		}
	}
	statuses := rec.events - rec.traceRecords
	for _, n := range rec.perArm {
		statuses -= n
	}
	ok = ok && statuses == 1
	c.add("events."+rec.view.ID, ok, "round events per arm %v, %d trace records, %d other events, last %q", rec.perArm, rec.traceRecords, statuses, rec.lastKind)
}

// checkDirect reruns a served job's options through experiments.Run and
// compares the results; its run time is the scenario's cost without the
// service.
func checkDirect(r *run, out *outcome, rec *jobRecord) error {
	var served experiments.Result
	if err := json.Unmarshal(rec.resultJSON, &served); err != nil {
		return fmt.Errorf("decoding result of %s: %w", rec.view.ID, err)
	}
	sp := r.tr.begin("experiments.Run", -1)
	t := time.Now()
	res, err := experiments.Run(rec.req.Scenario, served.Options)
	d := time.Since(t)
	r.tr.end(sp)
	if err != nil {
		return fmt.Errorf("direct %s: %w", rec.req.Scenario, err)
	}
	direct, err := json.Marshal(res)
	if err != nil {
		return err
	}
	// Compare both through the same decode/encode path.
	servedJSON, err := json.Marshal(&served)
	if err != nil {
		return err
	}
	out.checks.add("direct."+rec.req.Scenario, bytes.Equal(direct, servedJSON), "served result of %s vs experiments.Run (%d bytes)", rec.view.ID, len(direct))
	out.layers["experiments.run_s."+rec.req.Scenario] = d.Seconds()
	return nil
}
