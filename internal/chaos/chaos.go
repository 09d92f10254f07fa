// Package chaos is a deterministic fault-injection harness for the
// collective I/O implementations. It enumerates seeded fault scenarios
// across both engines, both transfer directions, and the buffered I/O
// methods, and checks the robustness invariants the fault model promises:
//
//   - Agreement: a collective either completes on every rank or returns an
//     error of the same class on every rank (wrapping ErrCollectiveAbort) —
//     and it always returns: no deadlock.
//   - Integrity: when the collective reports success, the bytes are right,
//     verified against an independently computed reference image.
//   - Accounting: recovery work is visible in virtual time — the trace and
//     the stats agree on the backoff cost to within 1% — and the trace
//     stays well formed (balanced spans, monotone clocks).
//
// Every scenario is seeded and virtual-timed, so a failure reproduces
// exactly and its Chrome trace can be exported for inspection.
package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"

	"flexio/internal/core"
	"flexio/internal/critpath"
	"flexio/internal/datatype"
	"flexio/internal/hpio"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
	"flexio/internal/stats"
	"flexio/internal/trace"
)

// Fault names the injection pattern a scenario applies.
type Fault string

const (
	// FaultTransient injects a bounded burst of EAGAIN-style errors that
	// the retry layer must absorb.
	FaultTransient Fault = "transient"
	// FaultPartial injects short transfers whose tails must be resumed.
	FaultPartial Fault = "partial"
	// FaultRound1 injects a hard error confined to collective round 1;
	// the collective must abort on every rank with the io class.
	FaultRound1 Fault = "hard-round1"
	// FaultBrownout slows every OST; the collective must still complete.
	FaultBrownout Fault = "brownout"
	// FaultStorm runs a lock-revoke storm; the collective must complete.
	FaultStorm Fault = "storm"
	// FaultGiveup injects unhealing transient errors so the retry ladder
	// exhausts; the collective must abort with the transient class.
	FaultGiveup Fault = "giveup"
	// FaultSieveHard injects hard errors only into sieve operations; with
	// Degraded set the engine falls back to naive I/O and completes,
	// otherwise it aborts with the io class.
	FaultSieveHard Fault = "sieve-hard"

	// FaultNone runs the workload with an empty fault schedule. It is not
	// part of the soak matrices; the soaks run it once per engine
	// configuration to obtain the fault-free baseline their .report.txt
	// differential artifacts diff against.
	FaultNone Fault = "none"
)

// Scenario is one deterministic chaos experiment.
type Scenario struct {
	// Engine selects the collective: "core-nb" (nonblocking pipeline),
	// "core-a2a" (Alltoallw), or "twophase" (the core.ROMIO baseline).
	Engine string
	// Write selects the transfer direction.
	Write bool
	// Method is the buffered I/O method the core engine drains rounds
	// with (ignored by twophase, which sieves inside the collective
	// buffer).
	Method mpiio.Method
	// Degraded enables the core engine's fall-back-to-naive recovery.
	Degraded bool
	// Fault is the injection pattern.
	Fault Fault
	// Seed drives the fault schedule's probability coins.
	Seed int64
	// Preagg enables node-local pre-aggregation, so the fault planes also
	// exercise the two-level exchange (chaos worlds run under a node map of
	// nodeRanks ranks per node).
	Preagg bool
}

// Name is a stable identifier for logs, subtests, and trace file names.
func (s Scenario) Name() string {
	dir := "read"
	if s.Write {
		dir = "write"
	}
	n := fmt.Sprintf("%s-%s-%s-%s", s.Engine, dir, s.Method, s.Fault)
	if s.Degraded {
		n += "-degraded"
	}
	if s.Preagg {
		n += "-pre"
	}
	return n
}

// wantClass is the error class the scenario must agree on (ClassOK means
// the collective must succeed).
func (s Scenario) wantClass() int64 {
	switch s.Fault {
	case FaultRound1:
		return mpiio.ClassIO
	case FaultGiveup:
		return mpiio.ClassTransient
	case FaultSieveHard:
		if s.Degraded && s.Write {
			return mpiio.ClassOK
		}
		return mpiio.ClassIO
	default:
		return mpiio.ClassOK
	}
}

// wantCounter names a stat that must be nonzero after the run, proving the
// injection actually exercised the path under test (empty = nothing to
// prove; FaultNone injects nothing).
func (s Scenario) wantCounter() string {
	switch s.Fault {
	case FaultNone:
		return ""
	case FaultTransient:
		return stats.CRetries
	case FaultPartial:
		return stats.CPartialResumes
	case FaultBrownout:
		return stats.CBrownoutServes
	case FaultStorm:
		return stats.CStormRevokes
	case FaultGiveup:
		return stats.CGiveups
	default:
		return stats.CFaultsInjected
	}
}

// schedule builds the scenario's seeded fault plan.
func (s Scenario) schedule() *pfs.FaultSchedule {
	sched := pfs.NewFaultSchedule(s.Seed)
	switch s.Fault {
	case FaultTransient:
		sched.Add(pfs.Rule{Class: pfs.ClassTransient, Count: 2})
	case FaultPartial:
		// Scoped to the transfer direction: an unscoped rule would spend
		// its injections on the sieve RMW prefetch reads, which the pfs
		// layer reports as transient (no data bytes lost), not partial.
		kind := "read"
		if s.Write {
			kind = "write"
		}
		sched.Add(pfs.Rule{Kind: kind, Class: pfs.ClassPartial, PartialFrac: 0.5, Count: 2})
	case FaultRound1:
		sched.Add(pfs.Rule{Rounds: []int{1}, Class: pfs.ClassIO})
	case FaultBrownout:
		sched.AddBrownout(pfs.Brownout{OST: -1, Slowdown: 4, ExtraLatency: 1e-4})
	case FaultStorm:
		sched.AddStorm(pfs.RevokeStorm{PerGrant: 2})
	case FaultGiveup:
		sched.Add(pfs.Rule{Class: pfs.ClassTransient})
	case FaultSieveHard:
		sched.Add(pfs.Rule{Kind: "write", Class: pfs.ClassIO,
			Match: func(op pfs.Op) bool { return op.Sieve }})
	}
	return sched
}

// engineOptions maps a scenario engine label to its core configuration:
// "core-a2a" is the Alltoallw exchange, "twophase" the ROMIO baseline
// (core.ROMIO, whose integrated sieve overrides method), and anything else
// the nonblocking pipeline.
func engineOptions(engine string, method mpiio.Method, preagg bool) core.Options {
	o := core.Options{Method: method}
	switch engine {
	case "core-a2a":
		o.Comm = core.Alltoallw
	case "twophase":
		o = core.ROMIO()
	}
	o.Preagg = preagg
	return o
}

// collective instantiates the engine under test.
func (s Scenario) collective() mpiio.Collective {
	o := engineOptions(s.Engine, s.Method, s.Preagg)
	o.Degraded = s.Degraded
	return core.New(o)
}

// Outcome reports what one scenario run observed.
type Outcome struct {
	Scenario Scenario
	// Class is the agreed error class (ClassOK when the collective
	// succeeded on every rank).
	Class int64
	// Injected counts faults the schedule fired.
	Injected int64
	// Stats is the merged per-rank recorder.
	Stats *stats.Recorder
	// Elapsed is the collective's virtual wall time.
	Elapsed sim.Time
	// Trace is the virtual-time event record, exportable as a Chrome
	// trace for postmortems.
	Trace *trace.Sink
	// Metrics is the live registry set; its flight recorder holds the
	// rounds leading up to an abort and is dumped as a postmortem
	// artifact alongside the trace.
	Metrics *metrics.Set
	// Comm is the rank×rank communication matrix of the faulted phase.
	Comm *mpi.CommMatrix
}

// nodeRanks is the block node-mapping width chaos worlds run under, so
// comm-matrix artifacts split shuffle bytes into inter- and intra-node
// (matching benchsuite.NodeRanks).
const nodeRanks = 2

// Run executes the scenario and checks every invariant. The returned error
// is an invariant violation (nil means the scenario behaved); the Outcome
// is returned even on violation so the caller can export the trace.
func (s Scenario) Run() (*Outcome, error) {
	// A gapped interleaved tile: holes keep aggregator accesses
	// noncontiguous (exercising data sieving and its RMW prefetch) and the
	// small collective buffer splits each access into several rounds.
	wl := hpio.Pattern{Ranks: 4, RegionSize: 64, RegionCount: 32, Spacing: 64}
	cfg := sim.DefaultConfig()
	w := mpi.NewWorld(wl.Ranks, cfg)
	fs := pfs.NewFileSystem(cfg)
	const fname = "chaos.dat"

	// Reads verify against a file seeded through the trusted, fault-free
	// independent path.
	if !s.Write {
		seedErr := make(chan error, wl.Ranks)
		w.Run(func(p *mpi.Proc) {
			f, err := mpiio.Open(p, fs, fname, mpiio.Info{IndepMethod: mpiio.ListIO})
			if err != nil {
				seedErr <- err
				return
			}
			ft, disp := wl.Filetype(p.Rank())
			if err := f.SetView(disp, datatype.Bytes(1), ft); err != nil {
				seedErr <- err
				return
			}
			mt, _ := wl.Memtype()
			if err := f.WriteIndependent(wl.FillBuffer(p.Rank()), mt, wl.RegionCount); err != nil {
				seedErr <- err
				return
			}
			seedErr <- f.Close()
		})
		for i := 0; i < wl.Ranks; i++ {
			if err := <-seedErr; err != nil {
				return nil, fmt.Errorf("chaos: seeding %s: %w", s.Name(), err)
			}
		}
	}

	// Trace and time only the faulted phase.
	sink := w.EnableTracing(0)
	met := w.EnableMetrics()
	comm := w.EnableCommMatrix()
	w.SetNodeMap(mpi.BlockNodeMap(nodeRanks))
	w.ResetClocks()
	fs.ResetTiming()
	sched := s.schedule()
	fs.SetFaultSchedule(sched)

	errs := make([]error, wl.Ranks)
	mism := make([]bool, wl.Ranks)
	w.Run(func(p *mpi.Proc) {
		f, err := mpiio.Open(p, fs, fname, mpiio.Info{
			Collective:  s.collective(),
			CollBufSize: 1024,
			RetryLimit:  6,
		})
		if err != nil {
			errs[p.Rank()] = err
			return
		}
		ft, disp := wl.Filetype(p.Rank())
		if err := f.SetView(disp, datatype.Bytes(1), ft); err != nil {
			errs[p.Rank()] = err
			return
		}
		mt, bufLen := wl.Memtype()
		if s.Write {
			errs[p.Rank()] = f.WriteAll(wl.FillBuffer(p.Rank()), mt, wl.RegionCount)
		} else {
			buf := make([]byte, bufLen)
			if err := f.ReadAll(buf, mt, wl.RegionCount); err != nil {
				errs[p.Rank()] = err
			} else {
				got, _ := datatype.Pack(buf, mt, 0, wl.RegionCount)
				exp, _ := datatype.Pack(wl.FillBuffer(p.Rank()), mt, 0, wl.RegionCount)
				mism[p.Rank()] = !bytes.Equal(got, exp)
			}
		}
		f.Close()
	})

	out := &Outcome{
		Scenario: s,
		Injected: sched.Injected(),
		Stats:    stats.Merge(w.Recorders()...),
		Elapsed:  w.MaxClock(),
		Trace:    sink,
		Metrics:  met,
		Comm:     comm,
	}

	// Invariant 1: agreement. All ranks succeed, or all ranks fail with
	// the same class wrapping ErrCollectiveAbort.
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	if failed != 0 && failed != wl.Ranks {
		return out, fmt.Errorf("agreement violated: %d of %d ranks errored: %v", failed, wl.Ranks, errs)
	}
	out.Class = mpiio.ErrorClass(errs[0])
	for r, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, mpiio.ErrCollectiveAbort) {
			return out, fmt.Errorf("rank %d error does not wrap ErrCollectiveAbort: %v", r, err)
		}
		if c := mpiio.ErrorClass(err); c != out.Class {
			return out, fmt.Errorf("rank %d agreed class %s, rank 0 %s",
				r, mpiio.ClassName(c), mpiio.ClassName(out.Class))
		}
	}
	if want := s.wantClass(); out.Class != want {
		return out, fmt.Errorf("agreed class %s, want %s (rank 0: %v)",
			mpiio.ClassName(out.Class), mpiio.ClassName(want), errs[0])
	}

	// Invariant 2: integrity on success.
	if out.Class == mpiio.ClassOK {
		if s.Write {
			img := fs.Snapshot(fname, wl.FileSize())
			ref := wl.Reference()
			for i := range ref {
				if img[i] != ref[i] {
					return out, fmt.Errorf("file byte %d = %d, want %d", i, img[i], ref[i])
				}
			}
		} else {
			for r, bad := range mism {
				if bad {
					return out, fmt.Errorf("rank %d: read-back data mismatch", r)
				}
			}
		}
	}

	// Invariant 3: the injection actually exercised the intended path.
	if s.Fault != FaultNone && s.Fault != FaultBrownout && s.Fault != FaultStorm && out.Injected == 0 {
		return out, fmt.Errorf("fault schedule never fired")
	}
	if c := s.wantCounter(); c != "" && out.Stats.Counter(c) == 0 {
		return out, fmt.Errorf("counter %q stayed zero", c)
	}

	// Invariant 4: accounting. The trace is well formed and agrees with
	// the stats on the virtual-time cost of backoff to within 1%.
	if err := sink.Check(); err != nil {
		return out, fmt.Errorf("trace malformed: %w", err)
	}
	sb := out.Stats.Time(stats.PBackoff)
	tb := sink.Breakdown().PhaseTotal(stats.PBackoff)
	if drift := math.Abs(float64(sb - tb)); sb > 0 && drift > 0.01*float64(sb) {
		return out, fmt.Errorf("backoff drift: stats %v vs trace %v", sb, tb)
	}
	return out, nil
}

// Matrix enumerates the full scenario grid: both engines (and both core
// exchange protocols), both directions, the buffered I/O methods, and every
// fault pattern — plus the degraded-mode recovery scenarios. Seeds are a
// deterministic function of the scenario index.
func Matrix() []Scenario {
	engines := []struct {
		name   string
		method mpiio.Method
	}{
		{"core-nb", mpiio.DataSieve},
		{"core-nb", mpiio.ListIO},
		{"core-a2a", mpiio.DataSieve},
		{"twophase", mpiio.DataSieve},
	}
	faults := []Fault{FaultTransient, FaultPartial, FaultRound1, FaultBrownout, FaultStorm, FaultGiveup}
	var ms []Scenario
	i := int64(0)
	for _, e := range engines {
		for _, write := range []bool{true, false} {
			for _, f := range faults {
				i++
				ms = append(ms, Scenario{
					Engine: e.name, Write: write, Method: e.method,
					Fault: f, Seed: 1000 + i,
				})
			}
		}
	}
	// Degraded-mode recovery: hard sieve faults, with and without the
	// fallback, on both core exchange protocols.
	for _, e := range []string{"core-nb", "core-a2a"} {
		for _, degraded := range []bool{false, true} {
			i++
			ms = append(ms, Scenario{
				Engine: e, Write: true, Method: mpiio.DataSieve,
				Degraded: degraded, Fault: FaultSieveHard, Seed: 1000 + i,
			})
		}
	}
	// Pre-aggregation riding the storage-fault planes: the two-level
	// exchange must keep agreement and integrity through retries, partial
	// transfers, and hard round aborts on every engine and direction.
	for _, e := range []string{"core-nb", "core-a2a", "twophase"} {
		for _, write := range []bool{true, false} {
			for _, f := range []Fault{FaultTransient, FaultPartial, FaultRound1} {
				i++
				ms = append(ms, Scenario{
					Engine: e, Write: write, Method: mpiio.DataSieve,
					Fault: f, Seed: 1000 + i, Preagg: true,
				})
			}
		}
	}
	return ms
}

// Quick is the short-mode subset: one scenario per fault pattern.
func Quick() []Scenario {
	seen := map[Fault]bool{}
	var qs []Scenario
	for _, s := range Matrix() {
		if !seen[s.Fault] {
			seen[s.Fault] = true
			qs = append(qs, s)
		}
	}
	return qs
}

// Soak runs the scenarios, logging one line each via logf. Failing
// scenarios export their Chrome trace into traceDir (when non-empty) as
// <name>.trace.json; scenarios that aborted or violated an invariant
// additionally dump their flight recorder as <name>.flight.json (the
// canonical, byte-deterministic form — see TestFlightDumpDeterministic).
// Every scenario writes <name>.report.txt, the ranked differential report
// of the faulted run against a fault-free baseline of the same engine
// configuration. It returns the number of invariant violations.
func Soak(scenarios []Scenario, traceDir string, logf func(format string, args ...any)) int {
	failures := 0
	bl := baselines{}
	for _, s := range scenarios {
		out, err := s.Run()
		status := "ok"
		if err != nil {
			failures++
			status = "FAIL: " + err.Error()
		}
		var class string
		var elapsed sim.Time
		var injected, retries, resumes int64
		if out != nil {
			class = mpiio.ClassName(out.Class)
			elapsed = out.Elapsed
			injected = out.Injected
			retries = out.Stats.Counter(stats.CRetries)
			resumes = out.Stats.Counter(stats.CPartialResumes)
		}
		logf("%-44s class=%-9s inj=%-3d retry=%-3d resume=%-3d t=%8.3fms  %s",
			s.Name(), class, injected, retries, resumes, float64(elapsed)*1e3, status)
		if traceDir == "" || out == nil {
			continue
		}
		if err != nil && out.Trace != nil {
			path := traceDir + "/" + s.Name() + ".trace.json"
			if werr := out.Trace.WriteChromeTraceFile(path); werr == nil {
				logf("  trace written to %s", path)
			}
			path = traceDir + "/" + s.Name() + ".critpath.txt"
			if werr := writeCritPathFile(out.Trace, path); werr == nil {
				logf("  critical path written to %s", path)
			}
		}
		if (err != nil || out.Class != mpiio.ClassOK) && out.Metrics != nil {
			path := traceDir + "/" + s.Name() + ".flight.json"
			if werr := writeFlightFile(out.Metrics, path); werr == nil {
				logf("  flight recorder written to %s", path)
			}
			if out.Comm != nil {
				path = traceDir + "/" + s.Name() + ".comm.json"
				if werr := writeCommFile(out.Comm, path); werr == nil {
					logf("  comm matrix written to %s", path)
				}
			}
		}
		if out.Metrics != nil {
			path := traceDir + "/" + s.Name() + ".report.txt"
			if werr := writeReportFile(bl.source(s), out.Metrics, s.Name(), path); werr == nil {
				logf("  differential report written to %s", path)
			}
		}
	}
	return failures
}

// writeFlightFile dumps the canonical flight-recorder JSON to path.
func writeFlightFile(met *metrics.Set, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := met.Dump(false).WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCritPathFile writes the critical-path report computed from the
// scenario trace to path.
func writeCritPathFile(sink *trace.Sink, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(critpath.Analyze(sink).Format()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCommFile dumps the comm matrix JSON (under the chaos node map) to
// path.
func writeCommFile(comm *mpi.CommMatrix, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := comm.WriteJSON(f, mpi.BlockNodeMap(nodeRanks)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
