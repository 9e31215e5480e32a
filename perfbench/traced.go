package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"cqabench/internal/cqa"
	"cqabench/internal/estimator"
	"cqabench/internal/mt"
	"cqabench/internal/obs"
	"cqabench/internal/sampler"
	"cqabench/internal/synopsis"
)

// A traced run executes every library op three ways, one after the
// other: the plain cqa.ApxAnswersFromSetContext call an untraced run
// times (cqa's own Stats.Stages split it into sampler init, estimation
// and the tuple loop's remainder), a replica of cqa's per-tuple loop
// built from the sampler and estimator packages' public functions whose
// samplers time every SampleBatch call (the sampler vs estimator-loop
// split), and the same replica on the other kernel (plain vs indexed on
// the same pair). Each split is taken inside one execution; the replica
// must reproduce cqa's estimates and sample counts bit-for-bit. The
// library workloads also send each op to a server holding their pair
// (see runLibraryTraced); serve-mixed runs these ops over its query
// table (see traceTable).

// timedSampler forwards to a kernel and accumulates the wall time of
// its SampleBatch calls. The estimators draw only through SampleBatch
// when a sampler offers it, so Sample is forwarded untimed.
type timedSampler struct {
	inner estimator.BatchSampler
	spent time.Duration
}

func (t *timedSampler) Sample(src *mt.Source) float64 { return t.inner.Sample(src) }

func (t *timedSampler) SampleBatch(src *mt.Source, dst []float64) {
	start := time.Now()
	t.inner.SampleBatch(src, dst)
	t.spent += time.Since(start)
}

// newSampler mirrors cqa's per-scheme kernel construction: the sampler
// and the weight |S•|/|db(B)| that turns its mean into R(H, B).
func newSampler(pair *synopsis.Admissible, scheme cqa.Scheme, kernel sampler.Kernel) (estimator.BatchSampler, float64) {
	indexed := kernel == sampler.Indexed
	switch scheme {
	case cqa.Natural:
		if indexed {
			return sampler.NewNaturalIndexed(pair), 1
		}
		return sampler.NewNatural(pair), 1
	case cqa.KL:
		if indexed {
			s := sampler.NewKLIndexed(pair)
			return s, s.Weight()
		}
		s := sampler.NewKL(pair)
		return s, s.Weight()
	default: // cqa.KLM; Cover has no kernel
		if indexed {
			s := sampler.NewKLMIndexed(pair)
			return s, s.Weight()
		}
		s := sampler.NewKLM(pair)
		return s, s.Weight()
	}
}

// kernelChoice picks the kernel a replica runs on a pair.
type kernelChoice func(*synopsis.Admissible) sampler.Kernel

// selectedKernel is cqa's own shape-based choice.
func selectedKernel(p *synopsis.Admissible) sampler.Kernel { return sampler.SelectKernel(p) }

// otherKernel is the kernel cqa does not pick. Both kernels consume the
// PRNG stream identically, so the estimates stay the same.
func otherKernel(p *synopsis.Admissible) sampler.Kernel {
	if sampler.SelectKernel(p) == sampler.Plain {
		return sampler.Indexed
	}
	return sampler.Plain
}

// tupleSeed is cqa's per-tuple substream root in parallel sampling mode.
func tupleSeed(seed uint64, i int) uint64 { return seed + uint64(i)*0x9E3779B97F4A7C15 }

// replicaResult is one execution of the replica.
type replicaResult struct {
	freqs   []float64
	samples int64
	init    time.Duration    // sampler constructors
	est     time.Duration    // estimator calls
	kernel  [2]time.Duration // SampleBatch time by sampler.Kernel (sequential ops)
}

// replicate re-runs cqa's per-tuple loop for one op: the same sampler
// per tuple, the same shared source (or per-tuple substream roots in
// parallel mode), the same estimator call and clamp. Spans go under
// parent, which is nil outside the first round.
func replicate(ctx context.Context, set *synopsis.Set, o op, choose kernelChoice, parent *obs.Span) (replicaResult, error) {
	opts := o.options()
	scheme := o.kind.scheme
	workers, parallel := cqa.SamplingPool(opts.SamplingWorkers)
	src := mt.New(opts.Seed)
	rr := replicaResult{freqs: make([]float64, 0, len(set.Entries))}
	for i := range set.Entries {
		pair := set.Entries[i].Pair
		kernel := choose(pair)
		sp := parent.StartChild("sampler.New")
		start := time.Now()
		var space *sampler.Symbolic
		var s estimator.BatchSampler
		weight := 1.0
		if scheme == cqa.Cover {
			space = sampler.NewSymbolic(pair)
		} else {
			s, weight = newSampler(pair, scheme, kernel)
		}
		rr.init += time.Since(start)
		sp.End()

		sp = parent.StartChild("estimator")
		start = time.Now()
		var res estimator.Result
		var err error
		switch {
		case space != nil:
			res, err = estimator.SelfAdjustingCoverageContext(ctx, space, opts.Eps, opts.Delta, src, opts.Budget)
		case parallel:
			res, err = estimator.MonteCarloParallel(ctx, estimator.Parallel{
				Seed:    tupleSeed(opts.Seed, i),
				Workers: workers,
				NewSampler: func() estimator.Sampler {
					ws, _ := newSampler(pair, scheme, kernel)
					return ws
				},
			}, opts.Eps, opts.Delta, opts.Budget)
		default:
			ts := &timedSampler{inner: s}
			res, err = estimator.MonteCarloContext(ctx, ts, opts.Eps, opts.Delta, src, opts.Budget)
			rr.kernel[kernel] += ts.spent
		}
		rr.est += time.Since(start)
		sp.End()
		rr.samples += res.Samples
		if err != nil {
			return rr, fmt.Errorf("tuple %d: %w", i, err)
		}
		rr.freqs = append(rr.freqs, math.Min(1, math.Max(0, res.Estimate*weight)))
	}
	return rr, nil
}

// sameAsCQA reports where a replica diverged from cqa's output.
func sameAsCQA(res []cqa.TupleFreq, st cqa.Stats, rr replicaResult) error {
	if rr.samples != st.Samples {
		return fmt.Errorf("%d samples, cqa drew %d", rr.samples, st.Samples)
	}
	if len(rr.freqs) != len(res) {
		return fmt.Errorf("%d estimates, cqa returned %d", len(rr.freqs), len(res))
	}
	for i, f := range rr.freqs {
		if math.Float64bits(f) != math.Float64bits(res[i].Freq) {
			return fmt.Errorf("tuple %d: estimate %v, cqa returned %v", i, f, res[i].Freq)
		}
	}
	return nil
}

// tracedOp is one op's measurements in the traced run.
type tracedOp struct {
	cqaTime     time.Duration // the plain call, as an untraced run times it
	replicaTime time.Duration // the instrumented replica of the same op
	samples     int64
	chunks      int64
	good        float64
	tuples      int
	other       time.Duration // cqa's tuple-loop time outside sampler init and estimation
	init        time.Duration // replica: sampler constructors
	est         time.Duration // replica: estimator calls
	kernel      time.Duration // replica: SampleBatch time on the selected kernel
	plain       time.Duration // SampleBatch time on the plain kernel (either replica)
	indexed     time.Duration // SampleBatch time on the indexed kernel (either replica)
}

// mtWords is how many 64-bit words one mt.ns_per_word probe draws.
const mtWords = 1 << 20

// mtSink keeps the probe's words live.
var mtSink uint64

// timeMT measures the MT19937-64 generator alone: ns per 64-bit word.
func timeMT(parent *obs.Span, seed uint64) float64 {
	sp := parent.StartChild("mt.Uint64")
	defer sp.End()
	src := mt.New(seed)
	var x uint64
	start := time.Now()
	for i := 0; i < mtWords; i++ {
		x ^= src.Uint64()
	}
	d := time.Since(start)
	mtSink ^= x
	return float64(d.Nanoseconds()) / mtWords
}

// tracer runs library ops the traced way and keeps their records.
type tracer struct {
	r      *runState
	chk    *checker
	per    map[string][]tracedOp
	kinds  []opKind // in first-run order
	mtNs   []float64
	allocs uint64 // bytes the cqa calls allocated
	gcs    uint32 // GC cycles during the cqa calls
	calls  int
}

func newTracer(r *runState, chk *checker) *tracer {
	return &tracer{r: r, chk: chk, per: map[string][]tracedOp{}}
}

// probeMT times the MT19937-64 generator once.
func (t *tracer) probeMT(parent *obs.Span, seed uint64) {
	t.mtNs = append(t.mtNs, timeMT(parent, seed))
}

// op runs o on set under parent: the plain cqa call, checked against
// exp, then the replica on the selected kernel and, for a sequential
// sampling op, on the other kernel. id names the op in failed checks;
// detail keeps per-tuple spans. It returns cqa's answers, or nil when
// the op failed its checks.
func (t *tracer) op(ctx context.Context, parent *obs.Span, set *synopsis.Set, exp *expectation, o op, id string, detail bool) []cqa.TupleFreq {
	r := t.r
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := parent.StartChild("cqa.ApxAnswersFromSetContext")
	start := time.Now()
	res, st, err := cqa.ApxAnswersFromSetContext(ctx, set, o.kind.scheme, o.options())
	rec := tracedOp{cqaTime: time.Since(start)}
	sp.End()
	runtime.ReadMemStats(&m1)
	t.allocs += m1.TotalAlloc - m0.TotalAlloc
	t.gcs += m1.NumGC - m0.NumGC
	t.calls++
	r.attempted++
	if err := t.chk.op(o.kind.name, exp, res, err); err != nil {
		r.opFailed("%s: %v", id, err)
		return nil
	}
	rec.samples, rec.chunks, rec.good, rec.tuples = st.Samples, st.Chunks, st.GoodRatio, st.NumTuples
	for _, sg := range st.Stages {
		if sg.Name == "other" {
			rec.other = sg.Dur
		}
	}

	sp = parent.StartChild("replica")
	start = time.Now()
	rr, err := replicate(ctx, set, o, selectedKernel, detailed(sp, detail))
	rec.replicaTime = time.Since(start)
	sp.End()
	if err == nil {
		err = sameAsCQA(res, st, rr)
	}
	if err != nil {
		r.problem("%s: replica: %v", id, err)
	}
	rec.init, rec.est = rr.init, rr.est
	rec.kernel = rr.kernel[sampler.Plain] + rr.kernel[sampler.Indexed]
	if o.kind.scheme != cqa.Cover && o.kind.workers == 0 {
		sp = parent.StartChild("replica.other_kernel")
		other, err := replicate(ctx, set, o, otherKernel, detailed(sp, detail))
		sp.End()
		if err == nil {
			err = sameAsCQA(res, st, other)
		}
		if err != nil {
			r.problem("%s: other-kernel replica: %v", id, err)
		}
		rec.plain = rr.kernel[sampler.Plain] + other.kernel[sampler.Plain]
		rec.indexed = rr.kernel[sampler.Indexed] + other.kernel[sampler.Indexed]
	}
	if _, seen := t.per[o.kind.name]; !seen {
		t.kinds = append(t.kinds, o.kind)
	}
	t.per[o.kind.name] = append(t.per[o.kind.name], rec)
	return res
}

// report sets the mt, sampler, estimator and cqa metrics, prints the
// ledger, and returns the replica's overhead over the plain cqa calls
// in percent.
func (t *tracer) report() float64 {
	t.r.set("mt.ns_per_word", median(t.mtNs))
	return libraryLayerMetrics(t.r, t.kinds, t.per)
}

// setGoMetrics reports the cqa calls' allocation and GC cycles per op.
func (t *tracer) setGoMetrics() {
	if t.calls > 0 {
		t.r.set("go.alloc_bytes_per_op", float64(t.allocs)/float64(t.calls))
		t.r.set("go.gc_cycles_per_op", float64(t.gcs)/float64(t.calls))
	}
}

// runLibraryTraced runs the op list the traced way and sends every op
// once more to a server that serves the workload's pair (see
// libServer), so the server layer is measured on the workload's own
// data too.
func runLibraryTraced(r *runState, spec libSpec, data libData, p pin, exp *expectation, ops []op, chk *checker, between func(int) error) error {
	ctx := context.Background()
	dir := filepath.Join(r.cfg.outDir, "tmp", "lib-"+strconv.Itoa(os.Getpid()))
	ls, err := startLibServer(r.cfg.workload, data, p, dir)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	defer ls.stop()
	tr := newTracer(r, chk)
	var recs []reqRecord
	for i, o := range ops {
		if err := between(i); err != nil {
			return err
		}
		opSpan := r.root.StartChild("op." + o.kind.name)
		if i%len(spec.kinds) == 0 {
			tr.probeMT(opSpan, o.seed)
		}
		id := fmt.Sprintf("op %d (%s, seed %d)", i, o.kind.name, o.seed)
		// Per-tuple spans in the first round only, to bound the trace.
		if res := tr.op(ctx, opSpan, data.set, exp, o, id, i < len(spec.kinds)); res != nil {
			rec, err := ls.request(opSpan, i, o, res)
			if err != nil {
				r.problem("%s: served: %v", id, err)
			}
			recs = append(recs, rec)
		}
		opSpan.End()
	}
	r.set("trace.overhead_pct", tr.report())
	tr.setGoMetrics()
	serverLayerMetrics(r, recs)
	return nil
}

// detailed returns sp when per-tuple spans are wanted, else nil.
func detailed(sp *obs.Span, want bool) *obs.Span {
	if want {
		return sp
	}
	return nil
}

// cell formats a ledger value, "-" where it does not apply.
func cell(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.1f", v)
}

// medianOf applies f to every op and returns the median.
func medianOf(recs []tracedOp, f func(tracedOp) float64) float64 {
	xs := make([]float64, len(recs))
	for i, rec := range recs {
		xs[i] = f(rec)
	}
	return median(xs)
}

// libraryLayerMetrics turns the traced ops into the per-layer metrics
// and prints the ns/draw ledger: end to end (cqa) beside kernel,
// estimator loop, and plain vs indexed on the same pair. It returns the
// replica's overhead over the plain cqa calls in percent.
func libraryLayerMetrics(r *runState, kinds []opKind, per map[string][]tracedOp) float64 {
	var cqaSum, replicaSum float64
	r.printf("%-7s %5s %12s %10s %10s %10s %10s %10s %10s %12s",
		"op", "ops", "samples/op", "e2e_ns/dr", "kern_ns/dr", "loop_ns/dr", "plain_ns", "indexed_ns", "init_us/op", "cqa_us/tuple")
	ledger := map[string]any{}
	for _, k := range kinds {
		recs := per[k.name]
		if len(recs) == 0 {
			continue
		}
		cqaSum += medianOf(recs, func(o tracedOp) float64 { return ms(o.cqaTime) })
		replicaSum += medianOf(recs, func(o tracedOp) float64 { return ms(o.replicaTime) })
		samples := medianOf(recs, func(o tracedOp) float64 { return float64(o.samples) })
		e2e := medianOf(recs, func(o tracedOp) float64 { return perDraw(o.cqaTime, o.samples) })
		overhead := medianOf(recs, func(o tracedOp) float64 { return us(o.other) / float64(o.tuples) })
		row := map[string]float64{"ops": float64(len(recs)), "samples": samples, "e2e_ns_per_draw": e2e, "cqa_overhead_us_per_tuple": overhead}
		// NaN marks a ledger cell that does not apply to the kind.
		kern, loop, plain, indexed, init := math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()
		switch k {
		case cover:
			r.set("estimator.cover.samples", samples)
			loop = medianOf(recs, func(o tracedOp) float64 { return perDraw(o.est, o.samples) })
			r.set("estimator.cover.ns_per_step", loop)
			row["loop_ns_per_draw"] = loop
		case klPar:
			r.set("estimator.kl_par.samples", samples)
			r.set("estimator.kl_par.chunks", medianOf(recs, func(o tracedOp) float64 { return float64(o.chunks) }))
			if seq := per[kl.name]; len(seq) > 0 {
				r.set("estimator.kl_par.speedup", medianOf(seq, func(o tracedOp) float64 { return perDraw(o.cqaTime, o.samples) })/e2e)
			}
		default:
			kern = medianOf(recs, func(o tracedOp) float64 { return perDraw(o.kernel, o.samples) })
			loop = medianOf(recs, func(o tracedOp) float64 { return perDraw(o.est-o.kernel, o.samples) })
			plain = medianOf(recs, func(o tracedOp) float64 { return perDraw(o.plain, o.samples) })
			indexed = medianOf(recs, func(o tracedOp) float64 { return perDraw(o.indexed, o.samples) })
			init = medianOf(recs, func(o tracedOp) float64 { return us(o.init) })
			r.set("sampler."+k.name+".ns_per_draw", kern)
			r.set("sampler."+k.name+".init_us", init)
			r.set("sampler."+k.name+".good_ratio", medianOf(recs, func(o tracedOp) float64 { return o.good }))
			r.set("sampler."+k.name+".plain_ns_per_draw", plain)
			r.set("sampler."+k.name+".indexed_ns_per_draw", indexed)
			r.set("estimator."+k.name+".samples", samples)
			r.set("estimator."+k.name+".loop_ns_per_draw", loop)
			row["kernel_ns_per_draw"], row["loop_ns_per_draw"] = kern, loop
			row["plain_ns_per_draw"], row["indexed_ns_per_draw"], row["init_us"] = plain, indexed, init
		}
		if k != klPar {
			r.set("cqa."+k.name+".overhead_us_per_tuple", overhead)
			r.set("cqa."+k.name+".ns_per_draw", e2e)
		}
		ledger[k.name] = row
		r.printf("%-7s %5d %12.0f %10.1f %10s %10s %10s %10s %10s %12.3f",
			k.name, len(recs), samples, e2e, cell(kern), cell(loop), cell(plain), cell(indexed), cell(init), overhead)
	}
	r.details["ledger"] = ledger
	return 100 * (replicaSum - cqaSum) / cqaSum
}
