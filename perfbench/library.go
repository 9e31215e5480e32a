package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"cqabench/internal/cq"
	"cqabench/internal/cqa"
	"cqabench/internal/mt"
	"cqabench/internal/obs"
	"cqabench/internal/relation"
	"cqabench/internal/scenario"
	"cqabench/internal/synopsis"
)

// labConfig is the pinned data every workload derives from:
// scenario.DefaultConfig at TPC-H SF 0.0002 (Lab seed 1) with three
// base queries per join level.
func labConfig() scenario.Config {
	cfg := scenario.DefaultConfig()
	cfg.ScaleFactor = 0.0002
	cfg.QueriesPerJoin = 3
	return cfg
}

// noiseP is the noise level of every pinned database.
const noiseP = 0.4

// opKind is one kind of library op: an ApxCQA[scheme] call with a
// sampling mode. name is its metric stem.
type opKind struct {
	name    string
	scheme  cqa.Scheme
	workers int // cqa.Options.SamplingWorkers
}

var (
	natural = opKind{"natural", cqa.Natural, 0}
	kl      = opKind{"kl", cqa.KL, 0}
	klm     = opKind{"klm", cqa.KLM, 0}
	cover   = opKind{"cover", cqa.Cover, 0}
	// klPar fans KL's draws over 2 substream workers (the reference
	// host's nproc).
	klPar = opKind{"kl_par", cqa.KL, 2}
)

// libSpec defines a library workload: one pinned (database, query) pair
// of the scenario Lab and the op kinds that interleave over it.
type libSpec struct {
	joins, index int
	balance      float64 // DQG balance target; 0 selects the Boolean query
	kinds        []opKind
	// tracedKinds are added to every round of a traced run, so that the
	// workload reports every per-layer metric.
	tracedKinds []opKind
	// roundSeconds is one round of every kind on the reference host; it
	// turns --seconds into a fixed number of rounds.
	roundSeconds float64
	// setupReps is how often a run repeats its set-up; setup_s is the
	// median.
	setupReps int
}

var libSpecs = map[string]libSpec{
	// The Boolean query of base query (joins 2, index 2): one answer
	// tuple, |H| = 444 images over 45 blocks, exact R = 0.5. The sampler
	// kernels dominate every op here.
	// Natural (~10 ms), and KL, whose draw count varies most with the
	// seed, run more often per round; so does KL with 2 workers, which
	// also feels contention on the second vCPU.
	"boolean-wide": {joins: 2, index: 2, balance: 0,
		kinds: []opKind{natural, kl, klPar, natural, klm, natural, cover, kl, klPar}, roundSeconds: 1.0, setupReps: 41},
	// The balance-1.0 query of base query (joins 1, index 0): 757 answer
	// tuples with one image over at most 2 blocks each. Kernels are
	// trivial; the PRNG and the per-tuple fixed costs dominate. KL, KLM
	// and Cover take 60-120 ms against Natural's 800, so they run three
	// times per round to sample as much of the run's host state. KL with
	// 2 workers runs in traced rounds only, for the per-layer metrics:
	// in untraced rounds, its 757 worker pools per op made the peak RSS
	// read anywhere from 16.5 to 23 MB between runs.
	"many-tuples": {joins: 1, index: 0, balance: 1,
		kinds:       []opKind{natural, kl, klm, cover, kl, klm, cover, kl, klm, cover},
		tracedKinds: []opKind{klPar}, roundSeconds: 1.8, setupReps: 15},
}

// op is one library op: a kind and its estimator seed.
type op struct {
	kind opKind
	seed uint64
}

// options returns the op's cqa options: the paper's ε = 0.1, δ = 0.25.
func (o op) options() cqa.Options {
	opts := cqa.DefaultOptions()
	opts.Seed = o.seed
	opts.SamplingWorkers = o.kind.workers
	return opts
}

// opList is the workload's fixed op sequence: rounds of every kind in
// round-robin order, so each kind samples the same host state, and an
// estimator seed per op drawn from the workload seed. It is a pure
// function of its arguments.
func opList(spec libSpec, seed uint64, seconds int) []op {
	rounds := int(math.Ceil(float64(seconds) / spec.roundSeconds))
	src := mt.New(seed)
	ops := make([]op, 0, rounds*len(spec.kinds))
	for r := 0; r < rounds; r++ {
		for _, k := range spec.kinds {
			ops = append(ops, op{kind: k, seed: src.Uint64()})
		}
	}
	return ops
}

// libData is a library workload's input.
type libData struct {
	db  *relation.Database
	q   *cq.Query
	set *synopsis.Set
}

// setupLibrary generates the pinned pair and builds its synopsis set,
// returning the scenario and synopsis wall times.
func setupLibrary(spec libSpec, parent *obs.Span) (d libData, gen, build time.Duration, err error) {
	sp := parent.StartChild("scenario.generate")
	t := time.Now()
	lab, err := scenario.NewLab(labConfig())
	if err == nil {
		d.db, err = lab.NoisyDB(spec.joins, spec.index, noiseP)
	}
	if err == nil {
		d.q, _, err = lab.BalancedQuery(spec.joins, spec.index, noiseP, spec.balance)
	}
	gen = time.Since(t)
	sp.End()
	if err != nil {
		return d, gen, 0, err
	}
	sp = parent.StartChild("synopsis.Build")
	t = time.Now()
	d.set, err = synopsis.Build(d.db, d.q)
	build = time.Since(t)
	sp.End()
	return d, gen, build, err
}

// setups repeats a library workload's set-up and keeps its timings.
type setups struct {
	spec                 libSpec
	root                 *obs.Span
	gens, builds, totals []float64
}

// rep sets up once more from a collected heap, and collects the
// set-up's garbage before the next op.
func (s *setups) rep() (libData, error) {
	runtime.GC()
	sp := s.root.StartChild("setup")
	d, gen, build, err := setupLibrary(s.spec, sp)
	sp.End()
	if err != nil {
		return d, fmt.Errorf("set-up: %w", err)
	}
	s.gens = append(s.gens, gen.Seconds())
	s.builds = append(s.builds, build.Seconds())
	s.totals = append(s.totals, (gen + build).Seconds())
	runtime.GC()
	return d, nil
}

func runLibrary(r *runState, spec libSpec) error {
	su := &setups{spec: spec, root: r.root}
	data, err := su.rep()
	if err != nil {
		return err
	}

	// Untimed: pin the inputs, then compute the exact frequencies the
	// output checks compare against.
	p, enc := observePin(r.cfg.workload, hashDB(data.db), data.db, data.q, data.set)
	if err := checkPins(r.cfg.workload, []pin{p}); err != nil {
		return err
	}
	exp, err := newExpectation(data.set)
	if err != nil {
		return err
	}
	chk := newChecker()
	if r.cfg.traced {
		spec.kinds = append(spec.kinds[:len(spec.kinds):len(spec.kinds)], spec.tracedKinds...)
	}
	ops := opList(spec, r.cfg.seed, r.cfg.seconds)
	r.details["ops"] = len(ops)
	r.details["pin"] = p

	// The other set-up repetitions are spread over the op sequence, so
	// setup_s samples the same host states as the ops do.
	every := max(1, len(ops)/spec.setupReps)
	between := func(i int) error {
		if i > 0 && i%every == 0 && len(su.totals) < spec.setupReps {
			_, err := su.rep()
			return err
		}
		return nil
	}
	if r.cfg.traced {
		err = runLibraryTraced(r, spec, data, p, exp, ops, chk, between)
	} else {
		err = runLibraryPlain(r, spec, data.set, exp, ops, chk, between)
	}
	for err == nil && len(su.totals) < spec.setupReps {
		_, err = su.rep()
	}
	if err != nil {
		return err
	}
	r.set("setup_s", median(su.totals))
	r.printf("setup: %d reps, median %.4f s (scenario %.4f s, synopsis %.4f s)",
		len(su.totals), median(su.totals), median(su.gens), median(su.builds))
	if r.cfg.traced {
		r.set("scenario.generate_s", median(su.gens))
		r.set("synopsis.build_s", median(su.builds))
		r.set("synopsis.tuples", float64(p.Tuples))
		r.set("synopsis.images", float64(p.Images))
		r.set("syncache.bytes", float64(p.Bytes))
		timeDecode(r, [][]byte{enc})
	}
	chk.report(r, "eps_misses")
	return nil
}

// kindStats collects one op kind's per-op measurements.
type kindStats struct {
	ms      []float64
	samples []float64
}

// runLibraryPlain times every op. op_ms is the median over the run's
// rounds of a round's mean op latency: every round does the same work,
// so round times are comparable, and the median leaves out the rounds
// a spell of host contention slowed. The summary prints each kind's
// mean, quartiles and draws.
func runLibraryPlain(r *runState, spec libSpec, set *synopsis.Set, exp *expectation, ops []op, chk *checker, between func(int) error) error {
	ctx := context.Background()
	stats := map[string]*kindStats{}
	for _, k := range spec.kinds {
		stats[k.name] = &kindStats{}
	}
	var all []float64
	for i, o := range ops {
		if err := between(i); err != nil {
			return err
		}
		t := time.Now()
		res, st, err := cqa.ApxAnswersFromSetContext(ctx, set, o.kind.scheme, o.options())
		d := time.Since(t)
		r.attempted++
		if err := chk.op(o.kind.name, exp, res, err); err != nil {
			r.opFailed("op %d (%s, seed %d): %v", i, o.kind.name, o.seed, err)
		}
		ks := stats[o.kind.name]
		ks.ms = append(ks.ms, ms(d))
		ks.samples = append(ks.samples, float64(st.Samples))
		all = append(all, ms(d))
	}
	rounds := chunkMeans(all, len(spec.kinds))
	r.set("op_ms", median(rounds))
	// The highest percentile of single ops with ten ops beyond it.
	tail := max(0, 1-10/float64(len(all)))
	r.printf("op_ms: median round %.3f ms/op over %d rounds (p25 %.3f, p75 %.3f); %d ops, mean %.3f ms, p%.1f %.3f ms",
		median(rounds), len(rounds), quantile(rounds, 0.25), quantile(rounds, 0.75),
		len(all), mean(all), 100*tail, quantile(all, tail))
	r.details["round_ms_per_op"] = rounds
	r.printf("%-8s %5s %10s %10s %10s %10s %14s", "op", "ops", "mean_ms", "p25_ms", "p50_ms", "p75_ms", "samples/op")
	summary := map[string]any{}
	for _, k := range distinctKinds(spec.kinds) {
		ks := stats[k.name]
		r.printf("%-8s %5d %10.3f %10.3f %10.3f %10.3f %14.0f", k.name, len(ks.ms),
			mean(ks.ms), quantile(ks.ms, 0.25), median(ks.ms), quantile(ks.ms, 0.75), median(ks.samples))
		summary[k.name] = map[string]any{"ops": len(ks.ms), "ms": ks.ms, "samples": ks.samples}
	}
	r.details["op_stats"] = summary
	return nil
}

// distinctKinds lists op kinds once each, in their first order.
func distinctKinds(kinds []opKind) []opKind {
	var out []opKind
	seen := map[string]bool{}
	for _, k := range kinds {
		if !seen[k.name] {
			seen[k.name] = true
			out = append(out, k)
		}
	}
	return out
}

// expectation is one synopsis set's expected output: its answer tuples
// in order and their exact frequencies.
type expectation struct {
	tuples []relation.Tuple
	exact  []float64
}

// newExpectation computes a set's exact frequencies with
// cqa.ExactAnswersFromSet.
func newExpectation(set *synopsis.Set) (*expectation, error) {
	exact, err := cqa.ExactAnswersFromSet(set, 0)
	if err != nil {
		return nil, fmt.Errorf("exact answers: %w", err)
	}
	e := &expectation{}
	for i, en := range set.Entries {
		e.tuples = append(e.tuples, en.Tuple)
		e.exact = append(e.exact, exact[i].Freq)
	}
	return e, nil
}

// checker checks library ops and tallies, per kind, the estimates
// outside relative error ε of the exact frequency.
type checker struct {
	eps     float64
	delta   float64
	outside map[string]int
	total   map[string]int
}

func newChecker() *checker {
	opts := cqa.DefaultOptions()
	return &checker{eps: opts.Eps, delta: opts.Delta, outside: map[string]int{}, total: map[string]int{}}
}

// op checks one op's output against exp: no error, the synopsis' answer
// tuples in order, every estimate in [0, 1]. It tallies the ε misses
// for report.
func (c *checker) op(kind string, exp *expectation, res []cqa.TupleFreq, err error) error {
	if err != nil {
		return err
	}
	if len(res) != len(exp.tuples) {
		return fmt.Errorf("%d answer tuples, the synopsis has %d", len(res), len(exp.tuples))
	}
	for i, tf := range res {
		if !slices.Equal(tf.Tuple, exp.tuples[i]) {
			return fmt.Errorf("answer %d is %v, the synopsis has %v", i, tf.Tuple, exp.tuples[i])
		}
		if !(tf.Freq >= 0 && tf.Freq <= 1) {
			return fmt.Errorf("answer %d: estimate %v outside [0, 1]", i, tf.Freq)
		}
		if math.Abs(tf.Freq-exp.exact[i]) > c.eps*exp.exact[i] {
			c.outside[kind]++
		}
		c.total[kind]++
	}
	return nil
}

// report applies the (ε, δ) check per kind: at most a δ share of the
// run's estimates may miss the exact frequency by more than ε relative.
func (c *checker) report(r *runState, key string) {
	miss := map[string]any{}
	for kind, n := range c.total {
		share := float64(c.outside[kind]) / float64(n)
		miss[kind] = map[string]any{"estimates": n, "outside_eps": c.outside[kind]}
		if share > c.delta {
			r.problem("%s: %d of %d estimates (%.3f) outside relative error %.2f of the exact frequency; δ = %.2f",
				kind, c.outside[kind], n, share, c.eps, c.delta)
		}
	}
	r.details[key] = miss
}
