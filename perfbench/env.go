package main

import (
	"context"
	"errors"
	"fmt"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"time"

	"flexio/internal/core"
	"flexio/internal/datatype"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
	"flexio/internal/trace"
)

// traceCap is the per-rank trace ring capacity of the traced run. The ring
// is analysed and cleared after every call, so it only has to hold one
// call's events; the traced run reports any overflow.
const traceCap = 1 << 16

// env is one simulated world running one workload: the MPI world, the file
// system, each rank's open file, and the call counter.
type env struct {
	wl    *workload
	w     *mpi.World
	fs    *pfs.FileSystem
	files []*mpiio.File
	met   *metrics.Set
	comm  *mpi.CommMatrix
	sink  *trace.Sink // nil on untraced runs
	tr    *tracer     // nil on untraced runs
	in    inputs
	rk    []rankIO
	// view is each rank's installed view, for the datatype counts.
	view []rankIO
	errs []error
	next int
	// rankFn is e.rank bound once, so the timed call allocates no
	// method value.
	rankFn func(p *mpi.Proc)
	// heap holds the runtime's cumulative allocation counters, read
	// around each timed call.
	heap []rtmetrics.Sample
}

// callResult is the outcome of one measured collective call.
type callResult struct {
	host    time.Duration // host wall time of SetView plus the collective
	virt    sim.Time      // virtual time the call took
	payload int64         // user bytes moved
	allocs  uint64        // heap objects allocated during the call
	allocB  uint64        // heap bytes allocated during the call
	err     error         // call error or failed check
}

// setup builds the world, file system and engine, opens the file, seeds
// it, and runs the warm-up calls. A non-nil tracer arms tracing and the
// per-call host spans.
func setup(wl *workload, seed int64, tr *tracer) (*env, error) {
	cfg := sim.DefaultConfig()
	w := mpi.NewWorld(wl.ranks, cfg)
	w.SetNodeMap(mpi.BlockNodeMap(wl.perNode))
	e := &env{
		wl: wl, w: w, tr: tr,
		files: make([]*mpiio.File, wl.ranks),
		in:    wl.newInputs(seed),
		rk:    make([]rankIO, wl.ranks),
		view:  make([]rankIO, wl.ranks),
		errs:  make([]error, wl.ranks),
	}
	e.rankFn = e.rank
	e.heap = []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	if tr != nil {
		e.sink = w.EnableTracing(traceCap)
	}
	e.met = w.EnableMetrics()
	e.comm = w.EnableCommMatrix()
	e.fs = pfs.NewFileSystem(cfg)
	if wl.integrity {
		w.EnableIntegrity(seed)
		e.fs.EnableIntegrity(seed, 0)
	}
	var coll mpiio.Collective = core.New(wl.opts)
	if tr != nil {
		coll = coreSpans{inner: coll, tr: tr}
	}
	info := mpiio.Info{Collective: coll, CbNodes: wl.cbNodes, CollBufSize: wl.collBuf}
	w.Run(func(p *mpi.Proc) {
		e.files[p.Rank()], e.errs[p.Rank()] = mpiio.Open(p, e.fs, wl.file, info)
	})
	if err := errors.Join(e.errs...); err != nil {
		return nil, fmt.Errorf("%s: open: %w", wl.name, err)
	}
	if err := e.in.seedFile(e); err != nil {
		return nil, fmt.Errorf("%s: seeding the file: %w", wl.name, err)
	}
	for i := 0; i < wl.warmup; i++ {
		if res := e.step(); res.err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", wl.name, res.err)
		}
	}
	if tr != nil {
		e.sink.Reset()
		tr.reset()
	}
	return e, nil
}

// runRanks runs fn on every rank's open file and joins the errors.
func (e *env) runRanks(fn func(r int, f *mpiio.File) error) error {
	e.w.Run(func(p *mpi.Proc) {
		e.errs[p.Rank()] = fn(p.Rank(), e.files[p.Rank()])
	})
	return errors.Join(e.errs...)
}

// rank is one rank's side of a measured call: install the new view, if
// any, then the collective read or write.
func (e *env) rank(p *mpi.Proc) {
	r := p.Rank()
	f, io := e.files[r], &e.rk[r]
	var err error
	if io.ft != nil {
		t := e.tr.now()
		err = f.SetView(io.disp, datatype.Bytes(1), io.ft)
		e.tr.rankSpan(r, "setview", t)
	}
	if err == nil {
		t := e.tr.now()
		if e.wl.write {
			err = f.WriteAll(io.buf, io.mt, io.count)
		} else {
			err = f.ReadAll(io.buf, io.mt, io.count)
		}
		e.tr.rankSpan(r, "collective", t)
	}
	e.errs[r] = err
}

// step runs the next call: it builds the inputs, times the call, and
// checks its outcome outside the timed region.
func (e *env) step() callResult {
	c := e.next
	e.next++
	e.tr.setCall(c)

	e.tr.region("view", func() { e.in.views(c, e.rk) })
	for r := range e.rk {
		if e.rk[r].ft != nil {
			e.view[r] = e.rk[r]
		}
	}
	e.in.fill(c, e.rk)

	before := e.integrityFailures()
	v0 := e.w.MaxClock()
	rtmetrics.Read(e.heap)
	objs0, bytes0 := e.heap[0].Value.Uint64(), e.heap[1].Value.Uint64()
	var host time.Duration
	if e.tr == nil {
		t0 := time.Now()
		e.w.Run(e.rankFn)
		host = time.Since(t0)
	} else {
		e.tr.region("call", func() {
			t0 := time.Now()
			e.w.Run(e.rankFn)
			host = time.Since(t0)
		})
	}
	rtmetrics.Read(e.heap)
	res := callResult{
		host:    host,
		virt:    e.w.MaxClock() - v0,
		payload: payload(e.rk),
		allocs:  e.heap[0].Value.Uint64() - objs0,
		allocB:  e.heap[1].Value.Uint64() - bytes0,
	}

	res.err = errors.Join(e.errs...)
	if res.err == nil {
		e.tr.region("verify", func() { res.err = e.in.verify(e, c, e.rk) })
	}
	if n := e.integrityFailures() - before; res.err == nil && n != 0 {
		res.err = fmt.Errorf("call %d: %d integrity mismatch or unrepaired event(s)", c, n)
	}
	return res
}

// payload is the user-data bytes a call moves across all ranks.
func payload(rk []rankIO) int64 {
	var n int64
	for r := range rk {
		n += rk[r].mt.Size() * rk[r].count
	}
	return n
}

// integrityFailures sums the wire and at-rest mismatch and unrepaired
// counters; every call must leave the sum unchanged.
func (e *env) integrityFailures() int64 {
	st := e.fs.IntegrityStats()
	n := st.Mismatches + st.Unrepaired
	for r := 0; r < e.wl.ranks; r++ {
		reg := e.met.Registry(r)
		n += reg.Counter(metrics.CIntegWireMismatch) + reg.Counter(metrics.CIntegUnrepaired)
	}
	return n
}

// coreSpans wraps the engine passed in mpiio.Info to record a per-rank
// host span around it.
type coreSpans struct {
	inner mpiio.Collective
	tr    *tracer
}

func (c coreSpans) Name() string { return c.inner.Name() }

func (c coreSpans) WriteAll(f *mpiio.File, buf []byte, mt datatype.Type, count int64) error {
	t := c.tr.now()
	err := c.inner.WriteAll(f, buf, mt, count)
	c.tr.rankSpan(f.Proc().Rank(), "core", t)
	return err
}

func (c coreSpans) ReadAll(f *mpiio.File, buf []byte, mt datatype.Type, count int64) error {
	t := c.tr.now()
	err := c.inner.ReadAll(f, buf, mt, count)
	c.tr.rankSpan(f.Proc().Rank(), "core", t)
	return err
}

// span is one host-time interval of the traced run; spans of one call
// share its call id.
type span struct {
	call       int
	name       string
	start, end time.Duration // since the tracer's origin
}

// tracer records the traced run's host spans and labels its CPU profile
// samples by region. A nil tracer records nothing.
type tracer struct {
	origin  time.Time
	call    int
	ranks   [][]span // per rank; written only by that rank's goroutine
	regions []span   // the benchmark's own regions (view, call, verify)
}

func newTracer(ranks int) *tracer {
	return &tracer{origin: time.Now(), ranks: make([][]span, ranks)}
}

func (t *tracer) reset() {
	for r := range t.ranks {
		t.ranks[r] = t.ranks[r][:0]
	}
	t.regions = t.regions[:0]
}

// setCall tags the spans that follow. It is called before the rank
// goroutines of the call start, which orders it before their reads.
func (t *tracer) setCall(c int) {
	if t != nil {
		t.call = c
	}
}

func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.origin)
}

func (t *tracer) rankSpan(r int, name string, start time.Duration) {
	if t != nil {
		t.ranks[r] = append(t.ranks[r], span{call: t.call, name: name, start: start, end: t.now()})
	}
}

// region runs fn as a named span whose CPU samples carry the
// label region=name. Goroutines fn starts (the rank goroutines) inherit
// the label.
func (t *tracer) region(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := t.now()
	pprof.Do(context.Background(), pprof.Labels(regionLabel, name), func(context.Context) { fn() })
	t.regions = append(t.regions, span{call: t.call, name: name, start: start, end: t.now()})
}

const regionLabel = "region"
