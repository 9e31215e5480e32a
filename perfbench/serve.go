package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"cqabench/internal/cq"
	"cqabench/internal/cqa"
	"cqabench/internal/mt"
	"cqabench/internal/obs"
	"cqabench/internal/relation"
	"cqabench/internal/scenario"
	"cqabench/internal/server"
	"cqabench/internal/syncache"
	"cqabench/internal/synopsis"
)

// The serve-mixed workload: server.New plus Start on loopback with 2
// workers, a read-write syncache in a temporary directory under --out
// and a synopsis memory budget of half the query table's encoded bytes.
// Two closed-loop clients send estimate requests with default options
// (scheme auto) drawn from a Zipf popularity over the committed query
// table, so the popular head stays resident and coalesces while the
// tail is evicted and reloaded.
const (
	serveClients = 2
	serveWorkers = 2
	// serveRate is requests per second on the reference host; it turns
	// --seconds into a fixed request count.
	serveRate = 2400
	// serveZipf is the popularity skew: entry k of the table is
	// requested with probability ∝ 1/(k+1)^serveZipf.
	serveZipf = 0.5
	// serveSetupReps is how often a run repeats its set-up.
	serveSetupReps = 9
	// serveBlocks is how many blocks of consecutive requests each
	// client's sequence splits into; op_ms is the median block's mean
	// latency.
	serveBlocks = 20
)

// requestSeqs returns each client's sequence of table indices. It is a
// pure function of its arguments.
func requestSeqs(seed uint64, tableLen, seconds int) [][]int {
	cdf := make([]float64, tableLen)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -serveZipf)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	per := seconds * serveRate / serveClients
	seqs := make([][]int, serveClients)
	for c := range seqs {
		src := mt.New(seed + uint64(c)*0x9E3779B97F4A7C15)
		seqs[c] = make([]int, per)
		for n := range seqs[c] {
			k := sort.SearchFloat64s(cdf, src.Float64())
			seqs[c][n] = min(k, tableLen-1)
		}
	}
	return seqs
}

// serveEnv is one set-up of the service.
type serveEnv struct {
	srv  *server.Server
	url  string
	dir  string
	dbs  map[string]*relation.Database
	warm []warmResponse // in table order
}

// warmResponse is one warm-up response, checked after set-up.
type warmResponse struct {
	status int
	body   []byte
}

// stop shuts the server down and removes its cache directory.
func (e *serveEnv) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if rmErr := os.RemoveAll(e.dir); err == nil {
		err = rmErr
	}
	return err
}

// estimateBody is the request for one table entry: default options.
func estimateBody(p pin) []byte {
	return mustJSON(server.EstimateRequest{Instance: p.Name, Query: p.Query})
}

// mustJSON marshals a request body.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // a plain struct always marshals
	}
	return b
}

// renderTuple renders an answer tuple over db's dictionary, as the
// service's responses do.
func renderTuple(db *relation.Database, t relation.Tuple) []string {
	vals := make([]string, len(t))
	for j, v := range t {
		vals[j] = db.Dict.Render(v)
	}
	return vals
}

// setupServe generates the instances, starts the service and requests
// every table entry once, which builds each synopsis and stores it in
// the syncache.
func setupServe(client *http.Client, tbl []pin, bodies [][]byte, dir string, parent *obs.Span) (env *serveEnv, gen, start time.Duration, err error) {
	env = &serveEnv{dir: dir, dbs: map[string]*relation.Database{}}
	sp := parent.StartChild("scenario.generate")
	t := time.Now()
	lab, err := scenario.NewLab(labConfig())
	for _, in := range serveInstances {
		if err != nil {
			break
		}
		env.dbs[in.name], err = lab.NoisyDB(in.joins, in.index, noiseP)
	}
	gen = time.Since(t)
	sp.End()
	if err != nil {
		return nil, gen, 0, err
	}

	sp = parent.StartChild("server.start")
	t = time.Now()
	cache, err := syncache.Open(dir, syncache.ModeReadWrite)
	if err != nil {
		return nil, gen, 0, err
	}
	var budget int64
	for _, p := range tbl {
		budget += int64(p.Bytes)
	}
	cfg := server.Config{
		Workers:           serveWorkers,
		SynopsisMemBudget: budget / 2,
		Cache:             cache,
		Registry:          obs.NewRegistry(),
	}
	for _, in := range serveInstances {
		cfg.Instances = append(cfg.Instances, server.InstanceConfig{
			Name:      in.name,
			DB:        env.dbs[in.name],
			KeyPrefix: fmt.Sprintf("perfbench %s j=%d i=%d p=%g", labConfig().Fingerprint(), in.joins, in.index, noiseP),
		})
	}
	if env.srv, err = server.New(cfg); err != nil {
		return nil, gen, 0, err
	}
	addr, err := env.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, gen, 0, err
	}
	env.url = "http://" + addr + "/v1/estimate"
	for _, body := range bodies {
		status, resp, err := post(client, env.url, body, "")
		if err != nil {
			env.stop()
			return nil, gen, 0, fmt.Errorf("warm-up: %w", err)
		}
		env.warm = append(env.warm, warmResponse{status, resp})
	}
	start = time.Since(t)
	sp.End()
	return env, gen, start, nil
}

// post sends one estimate request and returns the status and body.
func post(client *http.Client, url string, body []byte, requestID string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if requestID != "" {
		req.Header.Set("X-Request-ID", requestID)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, err
}

// expectedAnswer is one table entry's expected output.
type expectedAnswer struct {
	tuples [][]string // rendered, in synopsis order
	exact  []float64
	ref    []float64 // the estimates every response must repeat bit for bit, once set
}

// builtEntry is one serve-table entry built by the benchmark: its
// synopsis set, exact output and syncache encoding.
type builtEntry struct {
	set *synopsis.Set
	exp *expectation
	enc []byte
}

// serveExpectations builds every table entry's synopsis (untimed), pins
// it, and computes the exact frequencies.
func serveExpectations(r *runState, env *serveEnv, tbl []pin) ([]expectedAnswer, []builtEntry, error) {
	dbHashes := map[string]string{}
	for name, db := range env.dbs {
		dbHashes[name] = hashDB(db)
	}
	var got []pin
	var build time.Duration
	exp := make([]expectedAnswer, len(tbl))
	built := make([]builtEntry, len(tbl))
	sp := r.root.StartChild("synopsis.Build")
	for k, p := range tbl {
		db := env.dbs[p.Name]
		if db == nil {
			return nil, nil, fmt.Errorf("%w: serve table entry %d names unknown instance %q", errPin, k, p.Name)
		}
		q, err := cq.Parse(p.Query, db.Dict)
		if err != nil {
			return nil, nil, fmt.Errorf("serve table entry %d: %w", k, err)
		}
		t := time.Now()
		set, err := synopsis.Build(db, q)
		build += time.Since(t)
		if err != nil {
			return nil, nil, fmt.Errorf("serve table entry %d: %w", k, err)
		}
		observed, enc := observePin(p.Name, dbHashes[p.Name], db, q, set)
		got = append(got, observed)
		e, err := newExpectation(set)
		if err != nil {
			return nil, nil, fmt.Errorf("serve table entry %d: %w", k, err)
		}
		built[k] = builtEntry{set: set, exp: e, enc: enc}
		exp[k].exact = e.exact
		for _, t := range e.tuples {
			exp[k].tuples = append(exp[k].tuples, renderTuple(db, t))
		}
	}
	sp.End()
	if err := checkPins(r.cfg.workload, got); err != nil {
		return nil, nil, err
	}
	if r.cfg.traced {
		r.set("synopsis.build_s", build.Seconds())
		var tuples, images, size int
		for _, p := range got {
			tuples += p.Tuples
			images += p.Images
			size += p.Bytes
		}
		r.set("synopsis.tuples", float64(tuples))
		r.set("synopsis.images", float64(images))
		r.set("syncache.bytes", float64(size))
	}
	return exp, built, nil
}

// checkResponse checks one estimate response: 200, the synopsis' answer
// tuples in order, every estimate in [0, 1], and, once the warm-up has
// set them, the same estimates as the warm-up (default options make an
// estimate deterministic, whether it was coalesced, reloaded or
// computed).
func checkResponse(status int, body []byte, exp *expectedAnswer) (server.EstimateResponse, error) {
	var resp server.EstimateResponse
	if status != http.StatusOK {
		return resp, fmt.Errorf("status %d: %.200s", status, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return resp, fmt.Errorf("decode response: %w", err)
	}
	if len(resp.Answers) != len(exp.tuples) {
		return resp, fmt.Errorf("%d answer tuples, the synopsis has %d", len(resp.Answers), len(exp.tuples))
	}
	for i, a := range resp.Answers {
		if !slices.Equal(a.Tuple, exp.tuples[i]) {
			return resp, fmt.Errorf("answer %d is %v, the synopsis has %v", i, a.Tuple, exp.tuples[i])
		}
		if !(a.Freq >= 0 && a.Freq <= 1) {
			return resp, fmt.Errorf("answer %d: estimate %v outside [0, 1]", i, a.Freq)
		}
		if exp.ref != nil && math.Float64bits(a.Freq) != math.Float64bits(exp.ref[i]) {
			return resp, fmt.Errorf("answer %d: estimate %v, the warm-up returned %v", i, a.Freq, exp.ref[i])
		}
	}
	return resp, nil
}

// reqRecord is one timed request.
type reqRecord struct {
	latency   time.Duration
	err       error // nil when the response passed every check
	status    int
	bytes     int
	traced    bool
	source    string // "lru", "load" or "build"
	coalesced bool
	queueWait float64 // ms, as the server reports them
	prep      float64
	elapsed   float64
}

func runServe(r *runState) error {
	all, err := pinnedInputs()
	if err != nil {
		return err
	}
	tbl := all[r.cfg.workload]
	bodies := make([][]byte, len(tbl))
	for k, p := range tbl {
		bodies[k] = estimateBody(p)
	}
	transport := &http.Transport{MaxIdleConnsPerHost: serveClients}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	setupSpan := r.root.StartChild("setup")
	var env *serveEnv
	var gens, totals []float64
	for rep := 0; rep < serveSetupReps; rep++ {
		if env != nil {
			if err := env.stop(); err != nil {
				return fmt.Errorf("set-up: stop: %w", err)
			}
		}
		runtime.GC()
		dir := filepath.Join(r.cfg.outDir, "tmp", "serve-"+strconv.Itoa(os.Getpid())+"-"+strconv.Itoa(rep))
		e, gen, start, err := setupServe(client, tbl, bodies, dir, setupSpan)
		if err != nil {
			os.RemoveAll(dir)
			return fmt.Errorf("set-up: %w", err)
		}
		env = e
		gens = append(gens, gen.Seconds())
		totals = append(totals, (gen + start).Seconds())
	}
	setupSpan.End()
	defer env.stop()
	r.set("setup_s", median(totals))
	if r.cfg.traced {
		r.set("scenario.generate_s", median(gens))
	}
	r.printf("setup: %d reps, median %.4f s (scenario %.4f s)", serveSetupReps, median(totals), median(gens))

	exp, built, err := serveExpectations(r, env, tbl)
	if err != nil {
		return err
	}
	checkWarmUp(r, exp, env.warm)

	seqs := requestSeqs(r.cfg.seed, len(tbl), r.cfg.seconds)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	loadSpan := r.root.StartChild("load")
	recs := make([][]reqRecord, serveClients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range seqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			recs[c] = serveClient(client, env.url, c, seqs[c], bodies, exp, r.cfg.traced, loadSpan.StartChild("client."+strconv.Itoa(c)))
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	loadSpan.End()
	runtime.ReadMemStats(&m1)

	var lat, blocks []float64
	var flat []reqRecord
	for c, rs := range recs {
		var clat []float64
		for n, rec := range rs {
			r.attempted++
			flat = append(flat, rec)
			if rec.err != nil {
				r.opFailed("client %d request %d (table entry %d): %v", c, n, seqs[c][n], rec.err)
				clat = append(clat, math.Inf(1)) // a failed request misses every latency limit
				continue
			}
			clat = append(clat, ms(rec.latency))
		}
		lat = append(lat, clat...)
		blocks = append(blocks, chunkMeans(clat, max(1, len(clat)/serveBlocks))...)
	}
	if r.cfg.traced {
		serverLayerMetrics(r, flat)
		r.set("trace.overhead_pct", requestTraceOverhead(flat))
		n := float64(r.attempted)
		r.set("go.alloc_bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/n)
		r.set("go.gc_cycles_per_op", float64(m1.NumGC-m0.NumGC)/n)
		encoded := make([][]byte, len(built))
		for k, b := range built {
			encoded[k] = b.enc
		}
		timeDecode(r, encoded)
		traceTable(r, built)
	} else {
		r.set("op_ms", median(blocks))
	}
	r.printf("load: %d clients, %d requests in %.3f s, %.0f/s; latency mean %.3f ms, p50 %.3f ms, p99 %.3f ms; op_ms: median block %.3f ms over %d blocks (p25 %.3f, p75 %.3f)",
		serveClients, len(lat), wall.Seconds(), float64(len(lat))/wall.Seconds(), mean(lat), quantile(lat, 0.5), quantile(lat, 0.99),
		median(blocks), len(blocks), quantile(blocks, 0.25), quantile(blocks, 0.75))
	r.details["requests"] = len(lat)
	r.details["table_entries"] = len(tbl)
	r.details["block_ms_per_op"] = blocks
	return nil
}

// checkWarmUp checks the warm-up responses, records their estimates as
// the references later responses must repeat, and applies the (ε, δ)
// check: at most a δ share of the table's estimates may miss the exact
// frequency by more than ε relative.
func checkWarmUp(r *runState, exp []expectedAnswer, warm []warmResponse) {
	opts := cqa.DefaultOptions()
	var outside, total int
	for k := range exp {
		resp, err := checkResponse(warm[k].status, warm[k].body, &exp[k])
		if err != nil {
			r.problem("warm-up request for table entry %d: %v", k, err)
			continue
		}
		for i, a := range resp.Answers {
			exp[k].ref = append(exp[k].ref, a.Freq)
			if math.Abs(a.Freq-exp[k].exact[i]) > opts.Eps*exp[k].exact[i] {
				outside++
			}
			total++
		}
	}
	if share := float64(outside) / float64(max(total, 1)); share > opts.Delta {
		r.problem("%d of %d estimates (%.3f) outside relative error %.2f of the exact frequency; δ = %.2f",
			outside, total, share, opts.Eps, opts.Delta)
	}
	r.details["eps_misses"] = map[string]int{"estimates": total, "outside_eps": outside}
}

// serveClient is one closed-loop client: it sends its sequence one
// request at a time and checks every response. In a traced run every
// other request carries an X-Request-ID and a span, so the run can
// report its own tracing overhead.
func serveClient(client *http.Client, url string, c int, seq []int, bodies [][]byte, exp []expectedAnswer, traced bool, parent *obs.Span) []reqRecord {
	defer parent.End()
	recs := make([]reqRecord, len(seq))
	for n, k := range seq {
		rec := &recs[n]
		id := ""
		if traced && n%2 == 0 {
			id = fmt.Sprintf("perfbench-%d-%d", c, n)
			rec.traced = true
		}
		var sp *obs.Span
		if id != "" {
			sp = parent.StartChild("POST /v1/estimate " + id)
		}
		start := time.Now()
		status, body, err := post(client, url, bodies[k], id)
		rec.latency = time.Since(start)
		sp.End()
		rec.status, rec.bytes = status, len(body)
		var resp server.EstimateResponse
		if err == nil {
			resp, err = checkResponse(status, body, &exp[k])
		}
		if err != nil {
			rec.err = err
			continue
		}
		rec.note(resp)
	}
	return recs
}

// note records what the server reported about a checked response.
func (rec *reqRecord) note(resp server.EstimateResponse) {
	rec.source, rec.coalesced = resp.Synopsis, resp.Coalesced
	rec.queueWait, rec.prep, rec.elapsed = resp.Stats.QueueWaitMS, resp.Stats.PrepMS, resp.Stats.ElapsedMS
}

// serverLayerMetrics splits the served requests by the server's own
// report: queue wait, synopsis preparation, estimation, and the
// remainder (decode, admission, single-flight, encode, transport). The
// shares of synopsis sources and coalesced responses go to the summary
// and the result file.
func serverLayerMetrics(r *runState, recs []reqRecord) {
	var overhead, estimate, wait, prep, bytesOut []float64
	var ok, lru, load, coalesced, non2xx int
	for _, rec := range recs {
		if rec.status < 200 || rec.status > 299 {
			non2xx++
		}
		if rec.err != nil {
			continue
		}
		ok++
		bytesOut = append(bytesOut, float64(rec.bytes))
		switch rec.source {
		case "lru":
			lru++
		case "load":
			load++
		}
		if rec.coalesced {
			coalesced++
			continue // a follower's stats are its leader's
		}
		overhead = append(overhead, ms(rec.latency)-rec.queueWait-rec.prep-rec.elapsed)
		estimate = append(estimate, rec.elapsed)
		wait = append(wait, rec.queueWait)
		prep = append(prep, rec.prep)
	}
	r.set("server.overhead_ms", median(overhead))
	r.set("server.estimate_ms", median(estimate))
	r.set("server.prep_ms", mean(prep))
	r.set("server.queue_wait_ms", mean(wait))
	r.set("server.response_bytes", median(bytesOut))
	n := float64(max(ok, 1))
	shares := map[string]float64{"lru": float64(lru) / n, "load": float64(load) / n, "coalesced": float64(coalesced) / n}
	r.details["server_shares"] = shares
	r.details["server_non2xx"] = non2xx
	r.printf("server: %d responses, synopsis resident %.3f, reloaded %.3f, coalesced %.3f, non-2xx %d",
		ok, shares["lru"], shares["load"], shares["coalesced"], non2xx)
}

// requestTraceOverhead compares the median latency of the requests
// sent with an X-Request-ID and a span with the others', in percent.
func requestTraceOverhead(recs []reqRecord) float64 {
	var traced, plain []float64
	for _, rec := range recs {
		switch {
		case rec.err != nil:
		case rec.traced:
			traced = append(traced, ms(rec.latency))
		default:
			plain = append(plain, ms(rec.latency))
		}
	}
	return 100 * (median(traced)/median(plain) - 1)
}

// tableKinds are the op kinds a traced serve-mixed run runs over every
// table entry, and tableRounds how often.
var tableKinds = []opKind{natural, kl, klm, cover, klPar}

const tableRounds = 4

// traceTable runs every library op kind over every table entry the
// traced way (see tracer), so the sampler, estimator and cqa layers are
// measured on the synopses the service estimates with. Their seeds come
// from the workload seed. The replica's overhead goes to the result
// file only: serve-mixed's trace.overhead_pct is its requests'.
func traceTable(r *runState, built []builtEntry) {
	ctx := context.Background()
	chk := newChecker()
	tr := newTracer(r, chk)
	src := mt.New(r.cfg.seed)
	sp := r.root.StartChild("table")
	for round := 0; round < tableRounds; round++ {
		rsp := sp.StartChild("round." + strconv.Itoa(round))
		tr.probeMT(rsp, src.Uint64())
		for k, b := range built {
			for _, kind := range tableKinds {
				o := op{kind: kind, seed: src.Uint64()}
				id := fmt.Sprintf("table entry %d, %s (seed %d)", k, kind.name, o.seed)
				tr.op(ctx, rsp, b.set, b.exp, o, id, round == 0 && k == 0)
			}
		}
		rsp.End()
	}
	sp.End()
	r.details["table_replica_overhead_pct"] = tr.report()
	chk.report(r, "table_eps_misses")
}

// libServer serves a library workload's pair over loopback in a traced
// run, under serve-mixed's rules: serveWorkers workers, a read-write
// syncache in a temporary directory, and a synopsis memory budget of
// half the encoded bytes of what it serves. The pair's synopsis, the
// only one, therefore never stays resident, and every request reloads
// it from the syncache. Each op goes out once more as a request with
// the op's scheme, seed and sampling workers, and must return cqa's
// estimates bit for bit.
type libServer struct {
	srv       *server.Server
	dir       string
	transport *http.Transport
	client    *http.Client
	url       string
	instance  string
	query     string
	tuples    [][]string // the answer tuples, rendered
}

// startLibServer starts the server and sends one request with default
// options, which builds the synopsis and stores it in the syncache.
func startLibServer(name string, d libData, p pin, dir string) (*libServer, error) {
	cache, err := syncache.Open(dir, syncache.ModeReadWrite)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Workers:           serveWorkers,
		SynopsisMemBudget: int64(p.Bytes) / 2,
		Cache:             cache,
		Registry:          obs.NewRegistry(),
		Instances: []server.InstanceConfig{{
			Name:      name,
			DB:        d.db,
			KeyPrefix: fmt.Sprintf("perfbench %s %s", name, p.DB),
		}},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	transport := &http.Transport{MaxIdleConnsPerHost: 1}
	ls := &libServer{srv: srv, dir: dir, transport: transport, client: &http.Client{Transport: transport},
		instance: name, query: p.Query}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		ls.stop()
		return nil, err
	}
	ls.url = "http://" + addr + "/v1/estimate"
	for _, e := range d.set.Entries {
		ls.tuples = append(ls.tuples, renderTuple(d.db, e.Tuple))
	}
	status, body, err := post(ls.client, ls.url, mustJSON(server.EstimateRequest{Instance: name, Query: ls.query}), "")
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("warm-up: status %d: %.200s", status, body)
	}
	if err != nil {
		ls.stop()
		return nil, err
	}
	return ls, nil
}

// stop shuts the server down, closes the client's connections and
// removes the cache directory.
func (ls *libServer) stop() error {
	ls.transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ls.srv.Shutdown(ctx)
	if rmErr := os.RemoveAll(ls.dir); err == nil {
		err = rmErr
	}
	return err
}

// request sends op i, whose cqa answers were want, and checks the
// response against them.
func (ls *libServer) request(parent *obs.Span, i int, o op, want []cqa.TupleFreq) (reqRecord, error) {
	body := mustJSON(server.EstimateRequest{
		Instance:        ls.instance,
		Query:           ls.query,
		Scheme:          o.kind.scheme.String(),
		Seed:            o.seed,
		SamplingWorkers: o.kind.workers,
	})
	id := fmt.Sprintf("perfbench-op-%d", i)
	sp := parent.StartChild("POST /v1/estimate " + id)
	start := time.Now()
	status, data, err := post(ls.client, ls.url, body, id)
	rec := reqRecord{latency: time.Since(start), status: status, bytes: len(data), traced: true}
	sp.End()
	exp := expectedAnswer{tuples: ls.tuples}
	for _, tf := range want {
		exp.ref = append(exp.ref, tf.Freq)
	}
	var resp server.EstimateResponse
	if err == nil {
		resp, err = checkResponse(status, data, &exp)
	}
	if err != nil {
		rec.err = err
		return rec, err
	}
	rec.note(resp)
	return rec, nil
}

// decodeRounds is how often the traced run decodes each table synopsis.
const decodeRounds = 20

// timeDecode times the syncache codec's decode of every table synopsis,
// the work a reload does besides reading the file.
func timeDecode(r *runState, encoded [][]byte) {
	sp := r.root.StartChild("syncache.DecodeBytes")
	defer sp.End()
	var per []float64
	for round := 0; round < decodeRounds; round++ {
		for k, data := range encoded {
			start := time.Now()
			_, err := syncache.DecodeBytes(data)
			d := time.Since(start)
			if err != nil {
				r.problem("decode table entry %d: %v", k, err)
				return
			}
			per = append(per, us(d))
		}
	}
	r.set("syncache.decode_us", median(per))
}
