package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"flexio/internal/bufpool"
	"flexio/internal/critpath"
	"flexio/internal/datatype"
	"flexio/internal/integrity"
	"flexio/internal/metrics"
	"flexio/internal/sim"
	"flexio/internal/stats"
)

const (
	// setupRepeats is how often an end-to-end run sets up; it reports
	// the median.
	setupRepeats = 9
	// minCalls is the fewest calls a timed loop makes, whatever its
	// time budget.
	minCalls = 10
	// untracedShare is the part of a traced run's time budget spent in
	// its untraced pass (the counts plus the untraced latency baseline).
	untracedShare = 0.4
)

// outcome is what one run reports: the calls it attempted and failed, the
// metrics, and the first failure for the log.
type outcome struct {
	attempted, failed int
	firstErr          error
	metrics           map[string]float64
}

func (o *outcome) note(res callResult) {
	o.attempted++
	if res.err != nil {
		o.failed++
		if o.firstErr == nil {
			o.firstErr = res.err
		}
	}
}

// loopStats collects the per-call figures of a timed loop.
type loopStats struct {
	hostMs   []float64
	virtMBps []float64
	hostSec  float64
	payload  int64
	allocs   uint64
	allocB   uint64
}

func (l *loopStats) add(res callResult) {
	l.hostMs = append(l.hostMs, float64(res.host.Nanoseconds())/1e6)
	if res.virt > 0 {
		l.virtMBps = append(l.virtMBps, float64(res.payload)/1e6/res.virt.Seconds())
	}
	l.hostSec += res.host.Seconds()
	l.payload += res.payload
	l.allocs += res.allocs
	l.allocB += res.allocB
}

// tailBlock is the call count over which host_ms_p90 is taken: a p90
// with ten calls beyond it.
const tailBlock = 100

// blockedP90 is the median over consecutive tailBlock-call blocks of each
// block's p90 (the plain p90 when there are fewer calls). A slow spell of
// the host (another tenant's burst) then shifts only the blocks it
// overlaps, not the reported tail.
func blockedP90(xs []float64) float64 {
	if len(xs) < tailBlock {
		return quantile(xs, 0.9)
	}
	var p90s []float64
	for i := 0; i+tailBlock <= len(xs); i += tailBlock {
		p90s = append(p90s, quantile(xs[i:i+tailBlock], 0.9))
	}
	return quantile(p90s, 0.5)
}

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runEndToEnd sets up setupRepeats times, then runs the closed loop,
// untraced, for the time budget.
func runEndToEnd(wl *workload, seed int64, budget time.Duration) (*outcome, error) {
	var setups []float64
	var e *env
	for i := 0; i < setupRepeats; i++ {
		e = nil
		runtime.GC() // the previous set-up's world is not this one's cost
		t0 := time.Now()
		var err error
		if e, err = setup(wl, seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()

	o := &outcome{}
	var l loopStats
	deadline := time.Now().Add(budget)
	for o.attempted < minCalls || time.Now().Before(deadline) {
		res := e.step()
		o.note(res)
		l.add(res)
	}
	n := float64(o.attempted)
	o.metrics = map[string]float64{
		"virt_MBps":      quantile(l.virtMBps, 0.5),
		"host_ms_p50":    quantile(l.hostMs, 0.5),
		"host_ms_p90":    blockedP90(l.hostMs),
		"host_MBps":      ratio(float64(l.payload)/1e6, l.hostSec),
		"allocs_per_op":  float64(l.allocs) / n,
		"alloc_B_per_op": float64(l.allocB) / n,
		"peak_rss_MB":    peakRSSMB(),
		"setup_s":        quantile(setups, 0.5),
		"ok_frac":        (n - float64(o.failed)) / n,
	}
	return o, nil
}

// counters is a point-in-time reading of every counter the counts pass
// differences.
type counters struct {
	st           *stats.Recorder // merged over ranks
	met          *metrics.Registry
	rank0Rounds  int64
	aggIO        []int64 // bytes_io per aggregator rank
	msgs, commB  int64
	inter, intra int64
	pool         bufpool.Counters
}

func readCounters(e *env) counters {
	c := counters{
		st:          stats.Merge(e.w.Recorders()...),
		met:         e.met.Merged(),
		rank0Rounds: e.met.Registry(0).Counter(metrics.CRounds),
		msgs:        e.comm.TotalMsgs(),
		commB:       e.comm.TotalBytes(),
		pool:        bufpool.Snapshot(),
	}
	c.inter, c.intra = e.comm.NodeSplit(e.w.NodeMap())
	naggs := e.wl.cbNodes
	if naggs == 0 {
		naggs = e.wl.ranks
	}
	for _, rec := range e.w.Recorders()[:naggs] {
		c.aggIO = append(c.aggIO, rec.Counter(stats.CBytesIO))
	}
	return c
}

// viewCounts returns M, the flattened access's segment count, and the wire
// bytes of the flattened filetypes, summed over ranks for the installed
// views.
func viewCounts(e *env) (segs, flatB int64) {
	for r := range e.view {
		v, dataLen := e.view[r], e.rk[r].mt.Size()*e.rk[r].count
		if v.ft == nil || v.ft.Size() == 0 || dataLen == 0 {
			continue
		}
		inst := (dataLen + v.ft.Size() - 1) / v.ft.Size()
		s, _ := datatype.Segments(v.ft, v.disp, inst)
		segs += int64(len(s))
		flatB += datatype.FlatOf(v.ft, v.disp, inst).WireBytes()
	}
	return segs, flatB
}

// gcCPU reads the runtime's cumulative GC and total CPU-seconds estimates.
func gcCPU() (gc, total float64) {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rtmetrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// runCounts is the untraced pass of a traced run: the first wl.counted
// calls give the per-call counts, which are a deterministic function of
// workload and seed; the pass then continues untraced until its share of
// the budget is spent, for the untraced latency baseline and GC share.
func runCounts(wl *workload, seed int64, budget time.Duration, o *outcome) (p50 float64, err error) {
	e, err := setup(wl, seed, nil)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	m := o.metrics
	var hostMs []float64
	var virt sim.Time
	var segs, flatB int64
	var hashNs, hashB float64
	gc0, cpu0 := gcCPU()
	c0 := readCounters(e)
	deadline := time.Now().Add(budget)
	for i := 0; i < wl.counted; i++ {
		res := e.step()
		o.note(res)
		hostMs = append(hostMs, float64(res.host.Nanoseconds())/1e6)
		virt += res.virt
		s, b := viewCounts(e)
		segs += s
		flatB += b
		if wl.integrity {
			h := integrity.NewHasher(seed)
			t0 := time.Now()
			for r := range e.rk {
				h.Sum(e.rk[r].buf)
			}
			hashNs += float64(time.Since(t0).Nanoseconds())
			hashB += float64(res.payload)
			h.Release()
		}
	}
	c1 := readCounters(e)
	for time.Now().Before(deadline) {
		res := e.step()
		o.note(res)
		hostMs = append(hostMs, float64(res.host.Nanoseconds())/1e6)
	}
	gc1, cpu1 := gcCPU()

	n := float64(wl.counted)
	stc := func(name string) float64 { return float64(c1.st.Counter(name) - c0.st.Counter(name)) }
	mc := func(c metrics.Counter) float64 { return float64(c1.met.Counter(c) - c0.met.Counter(c)) }
	var aggMax, aggSum float64
	for i := range c1.aggIO {
		d := float64(c1.aggIO[i] - c0.aggIO[i])
		aggMax = max(aggMax, d)
		aggSum += d
	}
	serve := (c1.st.Time(stats.PServe) - c0.st.Time(stats.PServe)).Seconds()
	inter, intra := float64(c1.inter-c0.inter), float64(c1.intra-c0.intra)

	m["core.req_B_per_op"] = stc(stats.CReqBytes) / n
	m["core.pairs_per_op"] = stc(stats.CPairsProcessed) / n
	m["core.rounds_per_op"] = float64(c1.rank0Rounds-c0.rank0Rounds) / n
	m["core.memo_hit_frac"] = ratio(mc(metrics.CMemoHits), mc(metrics.CMemoHits)+mc(metrics.CMemoMisses))
	m["datatype.segs_per_op"] = float64(segs) / n
	m["datatype.flat_B_per_op"] = float64(flatB) / n
	m["realm.misaligned_frac"] = ratio(mc(metrics.CRealmsMisaligned), mc(metrics.CRealmsAssigned))
	m["realm.agg_imbalance"] = ratio(aggMax, aggSum/float64(len(c1.aggIO)))
	m["mpi.msgs_per_op"] = float64(c1.msgs-c0.msgs) / n
	m["mpi.B_per_op"] = float64(c1.commB-c0.commB) / n
	m["mpi.internode_frac"] = ratio(inter, inter+intra)
	m["mpiio.sieve_amp"] = ratio(mc(metrics.CSieveSpanBytes), mc(metrics.CSieveUsefulBytes))
	m["pfs.io_calls_per_op"] = stc(stats.CIOCalls) / n
	m["pfs.io_B_per_op"] = stc(stats.CBytesIO) / n
	m["pfs.lock_grants_per_op"] = stc(stats.CLockGrants) / n
	m["pfs.lock_revokes_per_op"] = stc(stats.CLockRevokes) / n
	m["pfs.stripe_conflicts_per_op"] = stc(stats.CStripeConflicts) / n
	m["pfs.rmw_pages_per_op"] = stc(stats.CRMWPages) / n
	m["pfs.ost_busy_frac"] = ratio(serve, float64(e.fs.Config().StripeCount)*virt.Seconds())
	m["pfs.ost_service_ms"] = serve * 1e3 / n
	m["pfs.cache_hit_frac"] = ratio(mc(metrics.CPageCacheHits), mc(metrics.CPageCacheHits)+mc(metrics.CPageCacheMisses))
	m["integrity.hash_ns_per_KiB"] = ratio(hashNs, hashB/1024)
	m["bufpool.miss_frac"] = ratio(float64(c1.pool.News-c0.pool.News), float64(c1.pool.Gets-c0.pool.Gets))
	m["runtime.gc_cpu_frac"] = ratio(gc1-gc0, cpu1-cpu0)
	return quantile(hostMs, 0.5), nil
}

// runTraced is the traced pass: tracing on, host spans recorded, a CPU
// profile taken, and every call's critical path analysed.
func runTraced(wl *workload, seed int64, budget time.Duration, o *outcome) (p50 float64, err error) {
	tr := newTracer(wl.ranks)
	e, err := setup(wl, seed, tr)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return 0, fmt.Errorf("cpu profile: %w", err)
	}
	var hostMs []float64
	cp := map[string]float64{}
	var covered, window float64
	var dropped int64
	calls := 0
	deadline := time.Now().Add(budget)
	for calls < minCalls || time.Now().Before(deadline) {
		res := e.step()
		o.note(res)
		calls++
		hostMs = append(hostMs, float64(res.host.Nanoseconds())/1e6)
		rep := critpath.Analyze(e.sink)
		for _, en := range rep.Entries {
			if name, ok := cpPhases[en.Phase]; ok {
				cp[name] += en.Sec
			}
		}
		covered += rep.CoveredSec
		window += rep.WindowSec
		dropped += e.sink.Dropped()
		e.sink.Reset()
	}
	pprof.StopCPUProfile()

	m, n := o.metrics, float64(calls)
	for _, name := range cpPhases {
		m[name] = cp[name] * 1e3 / n
	}
	m["telemetry.critpath_cover"] = ratio(covered, window)
	m["telemetry.trace_dropped"] = float64(dropped)

	// Host spans: the benchmark's regions per call, rank spans per call and rank.
	sum := map[string]float64{}
	for _, s := range tr.regions {
		sum["region."+s.name] += float64((s.end - s.start).Nanoseconds()) / 1e6
	}
	for _, spans := range tr.ranks {
		for _, s := range spans {
			sum["rank."+s.name] += float64((s.end - s.start).Nanoseconds()) / 1e6
		}
	}
	nr := n * float64(wl.ranks)
	m["span.view_ms"] = sum["region.view"] / n
	m["span.verify_ms"] = sum["region.verify"] / n
	m["span.setview_ms"] = sum["rank.setview"] / nr
	m["span.collective_ms"] = sum["rank.collective"] / nr
	m["span.core_ms"] = sum["rank.core"] / nr
	m["mpiio.self_ms"] = (sum["rank.collective"] - sum["rank.core"]) / nr

	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return 0, err
	}
	byLayer := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if s.labels[regionLabel] != "call" {
			continue // input generation, checks and analysis are the benchmark's own
		}
		byLayer[layerOf(p.innermostPackage(s.stack))] += float64(s.value)
		total += float64(s.value)
	}
	for _, l := range cpuLayers {
		m[l+".cpu_frac"] = ratio(byLayer[l], total)
	}
	return quantile(hostMs, 0.5), nil
}

// runPerLayer is a traced run: the untraced counts pass, then the traced
// pass, splitting the budget between them.
func runPerLayer(wl *workload, seed int64, budget time.Duration) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	start := time.Now()
	untraced, err := runCounts(wl, seed, time.Duration(float64(budget)*untracedShare), o)
	if err != nil {
		return nil, err
	}
	traced, err := runTraced(wl, seed, budget-time.Since(start), o)
	if err != nil {
		return nil, err
	}
	o.metrics["telemetry.trace_overhead_frac"] = ratio(traced, untraced) - 1
	return o, nil
}
