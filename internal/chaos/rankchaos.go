package chaos

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"flexio/internal/core"
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

// RankFault names a rank-level injection pattern — process failures, as
// opposed to the storage failures of Fault. Both compose: see
// RankCrashBrownout.
type RankFault string

const (
	// RankCrashShuffle kills the victim at round 0, before any round data
	// has been exchanged: the write journal is empty and recovery replays
	// the entire collective under reassigned realms.
	RankCrashShuffle RankFault = "crash-before-shuffle"
	// RankCrashMid kills the victim at round 2, after earlier rounds
	// became durable: recovery replays only what the journal lacks (the
	// skip path needs the victim to be a pure client — realm layouts that
	// survive the failover keep their journal epoch).
	RankCrashMid RankFault = "crash-mid-rounds"
	// RankStraggler stalls the victim far past the collective deadline at
	// round 1 without killing it: deadline detection must flag it suspect
	// and abort every rank on the same decision.
	RankStraggler RankFault = "straggler"
	// RankDropStorm drops-and-redelivers a fraction of the victim's sends
	// with a retransmit penalty below the deadline: the collective must
	// complete, unaborted and byte-perfect, with redeliveries counted.
	RankDropStorm RankFault = "drop-storm"
	// RankCrashBrownout combines a mid-collective crash with a storage
	// brownout: recovery must ride out both fault planes at once.
	RankCrashBrownout RankFault = "crash-brownout"
	// RankCrashRead kills the victim at round 2 of a collective read; the
	// rerun has no journal to consult (reads are idempotent) but must
	// still deliver every byte through the reassigned realms.
	RankCrashRead RankFault = "crash-mid-read"
)

// Rank-chaos timing: the collective deadline, the straggler stall (far
// beyond it), and the drop redelivery penalty (safely below it). The
// deadline must clear the legitimate per-round skew — aggregators do file
// I/O while pure clients idle, a resume lets some aggregators skip
// journalled rounds others replay, and a brownout inflates every round —
// so it sits well above the worst healthy round and well below the stall.
const (
	rankDeadline = sim.Time(50e-3)
	rankStall    = sim.Time(1.0)
	rankDropPen  = sim.Time(3e-4)
)

// RankScenario is one deterministic rank-failure experiment: inject the
// fault, watch the collective abort in agreement (or complete, for
// drop-storm), then revive and resume, and require the final file to be
// byte-identical to a fault-free run.
type RankScenario struct {
	// Engine selects the collective: "core-nb", "core-a2a", or
	// "twophase" (the core.ROMIO baseline). Every engine recovers by realm
	// reassignment (core.ResumeCollective).
	Engine string
	// Fault is the rank-level injection pattern.
	Fault RankFault
	// Victim is the rank the fault targets.
	Victim int
	// CbNodes caps the aggregator count (0 = every rank aggregates).
	// Killing a rank at or above it exercises the journal's same-epoch
	// skip path: a dead pure client moves no realms.
	CbNodes int
	// Seed drives the drop-rule probability coins.
	Seed int64
	// Preagg enables node-local pre-aggregation on the engine under test,
	// so leader and member crashes exercise the two-level exchange's
	// failover: the resume elects the next live co-resident leader.
	Preagg bool
}

// Name is a stable identifier for logs, subtests, and artifact file names.
func (s RankScenario) Name() string {
	n := fmt.Sprintf("%s-%s-v%d", s.Engine, s.Fault, s.Victim)
	if s.CbNodes > 0 {
		n += fmt.Sprintf("-cb%d", s.CbNodes)
	}
	if s.Preagg {
		n += "-pre"
	}
	return n
}

// read reports whether the scenario transfers in the read direction.
func (s RankScenario) read() bool { return s.Fault == RankCrashRead }

// crashes reports whether the victim's goroutine dies (as opposed to
// running late or dropping messages).
func (s RankScenario) crashes() bool {
	switch s.Fault {
	case RankCrashShuffle, RankCrashMid, RankCrashBrownout, RankCrashRead:
		return true
	}
	return false
}

// schedule builds the scenario's seeded rank-fault plan.
func (s RankScenario) schedule() *mpi.RankFaultSchedule {
	rf := mpi.NewRankFaultSchedule(s.Seed)
	switch s.Fault {
	case RankCrashShuffle:
		rf.Crash(s.Victim, 0)
	case RankCrashMid, RankCrashBrownout, RankCrashRead:
		rf.Crash(s.Victim, 2)
	case RankStraggler:
		rf.Stall(s.Victim, 1, rankStall)
	case RankDropStorm:
		rf.Drop(s.Victim, mpi.Any, 0.4, rankDropPen, 0)
	}
	return rf
}

// RankOutcome reports what one rank-chaos run observed across the faulted
// attempt and (when one happened) the recovery attempt.
type RankOutcome struct {
	Scenario RankScenario
	// AbortClass is the class the faulted attempt agreed on (ClassOK for
	// drop-storm, which must complete).
	AbortClass int64
	// Dead is the failed-rank set detection produced.
	Dead []int
	// Injected counts rank faults that fired.
	Injected int64
	// PreRounds is the journal's committed (agg, round) count at abort
	// time — the work recovery gets to keep when the epoch survives.
	PreRounds int64
	// Replayed / Skipped / Failovers / DeadlineTrips / Redelivered are
	// the merged failover counters after both attempts.
	Replayed, Skipped, Failovers, DeadlineTrips, Redelivered int64
	// Elapsed is the total virtual time across both attempts.
	Elapsed sim.Time
	Trace   *trace.Sink
	Metrics *metrics.Set
	// Comm is the rank×rank communication matrix accumulated across both
	// the faulted attempt and the resume.
	Comm *mpi.CommMatrix
	// Stats is the merged per-rank recorder.
	Stats *stats.Recorder
}

// Run executes the scenario and checks the failover invariants. The
// returned error is an invariant violation (nil means the scenario
// behaved); the Outcome is returned even on violation so the caller can
// export trace and flight artifacts.
func (s RankScenario) Run() (*RankOutcome, error) {
	wl := hpio.Pattern{Ranks: 4, RegionSize: 64, RegionCount: 32, Spacing: 64}
	cfg := sim.DefaultConfig()
	w := mpi.NewWorld(wl.Ranks, cfg)
	fs := pfs.NewFileSystem(cfg)
	const fname = "rankchaos.dat"

	// Reads verify against a file seeded through the trusted, fault-free
	// independent path — before any fault machinery is armed.
	if s.read() {
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
				return nil, fmt.Errorf("rankchaos: seeding %s: %w", s.Name(), err)
			}
		}
	}

	sink := w.EnableTracing(0)
	met := w.EnableMetrics()
	comm := w.EnableCommMatrix()
	w.SetNodeMap(mpi.BlockNodeMap(nodeRanks))
	w.ResetClocks()
	fs.ResetTiming()
	rf := s.schedule()
	w.SetRankFaults(rf)
	w.SetCollDeadline(rankDeadline)
	if s.Fault == RankCrashBrownout {
		sched := pfs.NewFaultSchedule(s.Seed)
		sched.AddBrownout(pfs.Brownout{OST: -1, Slowdown: 4, ExtraLatency: 1e-4})
		fs.SetFaultSchedule(sched)
	}

	journal := mpiio.NewWriteJournal()
	baseOpts := engineOptions(s.Engine, mpiio.DataSieve, s.Preagg)
	baseOpts.Journal = journal

	// attempt runs one collective transfer on every rank and returns the
	// per-rank results (nil error and false mismatch for a rank whose
	// goroutine the fault killed mid-call).
	attempt := func(coll mpiio.Collective) ([]error, []bool) {
		errs := make([]error, wl.Ranks)
		mism := make([]bool, wl.Ranks)
		w.Run(func(p *mpi.Proc) {
			f, err := mpiio.Open(p, fs, fname, mpiio.Info{
				Collective:  coll,
				CollBufSize: 1024,
				CbNodes:     s.CbNodes,
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
			if s.read() {
				buf := make([]byte, bufLen)
				if err := f.ReadAll(buf, mt, wl.RegionCount); err != nil {
					errs[p.Rank()] = err
				} else {
					got, _ := datatype.Pack(buf, mt, 0, wl.RegionCount)
					exp, _ := datatype.Pack(wl.FillBuffer(p.Rank()), mt, 0, wl.RegionCount)
					mism[p.Rank()] = !bytes.Equal(got, exp)
				}
			} else {
				errs[p.Rank()] = f.WriteAll(wl.FillBuffer(p.Rank()), mt, wl.RegionCount)
			}
			f.Close()
		})
		return errs, mism
	}

	finish := func() *RankOutcome {
		m := met.Merged()
		return &RankOutcome{
			Scenario:      s,
			Injected:      rf.Injected(),
			Replayed:      m.Counter(metrics.CRoundsReplayed),
			Skipped:       m.Counter(metrics.CRoundsSkipped),
			Failovers:     m.Counter(metrics.CFailovers),
			DeadlineTrips: m.Counter(metrics.CDeadlineTrips),
			Redelivered:   m.Counter(metrics.CRedelivered),
			Elapsed:       w.MaxClock(),
			Trace:         sink,
			Metrics:       met,
			Comm:          comm,
			Stats:         stats.Merge(w.Recorders()...),
		}
	}

	errs, mism := attempt(core.New(baseOpts))

	// Drop-storm is a latency fault: the collective must complete in one
	// attempt with the redeliveries on the books.
	if s.Fault == RankDropStorm {
		out := finish()
		out.AbortClass = mpiio.ClassOK
		for r, err := range errs {
			if err != nil {
				return out, fmt.Errorf("rank %d aborted under drop-storm: %v", r, err)
			}
		}
		if out.Injected == 0 || out.Redelivered == 0 {
			return out, fmt.Errorf("drop schedule never fired (injected=%d redelivered=%d)",
				out.Injected, out.Redelivered)
		}
		return out, s.verifyData(fs, fname, wl, mism)
	}

	// Every other fault must abort the faulted attempt: survivors agree on
	// the unresponsive class, the victim is detected, and no rank hangs
	// (w.Run returning at all proves the latter).
	dead := w.FailedRanks()
	out := finish()
	out.Dead = dead
	out.PreRounds = journal.Rounds()
	if len(dead) == 0 {
		return out, fmt.Errorf("no failed rank detected")
	}
	victimDetected := false
	for _, d := range dead {
		if d == s.Victim {
			victimDetected = true
		}
	}
	if !victimDetected {
		return out, fmt.Errorf("victim %d not in detected dead set %v", s.Victim, dead)
	}
	isDead := func(r int) bool {
		for _, d := range dead {
			if d == r {
				return true
			}
		}
		return false
	}
	out.AbortClass = mpiio.ClassUnresponsive
	for r, err := range errs {
		if isDead(r) && s.crashes() {
			continue // the victim's goroutine never returned
		}
		if err == nil {
			return out, fmt.Errorf("rank %d completed despite the fault", r)
		}
		if c := mpiio.ErrorClass(err); c != mpiio.ClassUnresponsive {
			return out, fmt.Errorf("rank %d aborted with class %s, want unresponsive (%v)",
				r, mpiio.ClassName(c), err)
		}
	}
	if out.DeadlineTrips == 0 {
		return out, fmt.Errorf("deadline_trips stayed zero across an unresponsive abort")
	}

	// Recovery: revive the world (the crashed process restarts and
	// rejoins), demote the dead ranks from aggregator duty, and resume.
	// The journal lets same-epoch reruns skip the rounds already durable.
	w.ReviveAll()
	errs, mism = attempt(core.ResumeCollective(baseOpts, journal, dead))
	for r, err := range errs {
		if err != nil {
			return out, fmt.Errorf("rank %d failed on resume: %v", r, err)
		}
	}

	// Refresh the counters now that the resume ran.
	fin := finish()
	fin.AbortClass = out.AbortClass
	fin.Dead = out.Dead
	fin.PreRounds = out.PreRounds
	out = fin

	if out.Failovers == 0 {
		return out, fmt.Errorf("resume recorded no failover")
	}
	if !s.read() {
		if out.Replayed+out.Skipped == 0 {
			return out, fmt.Errorf("resume journalled no rounds (replayed=%d skipped=%d)",
				out.Replayed, out.Skipped)
		}
		// The same-epoch skip path: a dead pure client moves no realms, so
		// everything committed before the crash must be reused, and a
		// mid-collective crash must have committed something.
		if s.Fault == RankCrashMid && s.CbNodes > 0 && s.Victim >= s.CbNodes {
			if out.PreRounds == 0 {
				return out, fmt.Errorf("mid-collective crash committed no rounds before dying")
			}
			if out.Skipped == 0 {
				return out, fmt.Errorf("client-victim resume replayed everything (skipped=0, pre=%d)",
					out.PreRounds)
			}
		}
	}
	return out, s.verifyData(fs, fname, wl, mism)
}

// verifyData checks byte-identity with a fault-free run: the file image
// against the workload's independent reference (writes), or the per-rank
// read-back buffers (reads).
func (s RankScenario) verifyData(fs *pfs.FileSystem, fname string, wl hpio.Pattern, mism []bool) error {
	if s.read() {
		for r, bad := range mism {
			if bad {
				return fmt.Errorf("rank %d: read-back data mismatch after recovery", r)
			}
		}
		return nil
	}
	img := fs.Snapshot(fname, wl.FileSize())
	ref := wl.Reference()
	for i := range ref {
		if img[i] != ref[i] {
			return fmt.Errorf("file byte %d = %d, want %d (not byte-identical to fault-free run)",
				i, img[i], ref[i])
		}
	}
	return nil
}

// RankMatrix enumerates the rank-failure grid: every engine against every
// rank-fault pattern, with both aggregator and pure-client victims for the
// mid-collective crash (the latter exercises the journal's same-epoch skip
// path). Seeds are a deterministic function of the scenario index.
func RankMatrix() []RankScenario {
	var ms []RankScenario
	i := int64(0)
	add := func(engine string, f RankFault, victim, cb int) {
		i++
		ms = append(ms, RankScenario{
			Engine: engine, Fault: f, Victim: victim, CbNodes: cb, Seed: 7000 + i,
		})
	}
	for _, e := range []string{"core-nb", "core-a2a", "twophase"} {
		add(e, RankCrashShuffle, 1, 0)
		add(e, RankCrashMid, 1, 0)  // aggregator victim: realms move, fresh epoch
		add(e, RankCrashMid, 3, 2)  // pure-client victim: same epoch, journal skips
		add(e, RankStraggler, 2, 0) // aggregator running late, not dead
		add(e, RankDropStorm, 1, 0)
		add(e, RankCrashBrownout, 1, 0) // rank + storage fault planes composed
	}
	add("core-nb", RankCrashRead, 1, 0)
	add("core-a2a", RankCrashRead, 1, 0)
	// Pre-aggregation failover: nodes span nodeRanks consecutive ranks, so
	// rank 0 leads node 0 and rank 1 is its member. A leader crash forces
	// the resume to elect the next live co-resident (PlanNode excludes the
	// dead set); a member crash aborts through the leader's seeded error.
	pre := func(engine string, f RankFault, victim int) {
		i++
		ms = append(ms, RankScenario{
			Engine: engine, Fault: f, Victim: victim, Seed: 7000 + i, Preagg: true,
		})
	}
	for _, e := range []string{"core-nb", "core-a2a", "twophase"} {
		pre(e, RankCrashMid, 0)     // leader dies mid-rounds
		pre(e, RankCrashShuffle, 1) // member dies before any round data
	}
	pre("core-nb", RankCrashRead, 0) // leader dies mid-read: scatter must abort uniformly
	return ms
}

// RankQuick is the short-mode subset: one scenario per rank-fault pattern.
func RankQuick() []RankScenario {
	seen := map[RankFault]bool{}
	var qs []RankScenario
	for _, s := range RankMatrix() {
		if !seen[s.Fault] {
			seen[s.Fault] = true
			qs = append(qs, s)
		}
	}
	return qs
}

// ParseRankSpec parses "fault:victim[:cbnodes]" (e.g. "crash-mid-rounds:1"
// or "crash-mid-rounds:3:2") into a scenario for the given engine.
func ParseRankSpec(engine, spec string, seed int64) (RankScenario, error) {
	parts := strings.Split(spec, ":")
	s := RankScenario{Engine: engine, Seed: seed, Victim: 1}
	switch RankFault(parts[0]) {
	case RankCrashShuffle, RankCrashMid, RankStraggler, RankDropStorm,
		RankCrashBrownout, RankCrashRead:
		s.Fault = RankFault(parts[0])
	default:
		return s, fmt.Errorf("unknown rank fault %q (want one of %s, %s, %s, %s, %s, %s)",
			parts[0], RankCrashShuffle, RankCrashMid, RankStraggler,
			RankDropStorm, RankCrashBrownout, RankCrashRead)
	}
	if len(parts) > 1 {
		v, err := strconv.Atoi(parts[1])
		if err != nil {
			return s, fmt.Errorf("bad victim %q: %w", parts[1], err)
		}
		s.Victim = v
	}
	if len(parts) > 2 {
		cb, err := strconv.Atoi(parts[2])
		if err != nil {
			return s, fmt.Errorf("bad cbnodes %q: %w", parts[2], err)
		}
		s.CbNodes = cb
	}
	return s, nil
}

// RankSoak runs the rank-failure scenarios, logging one line each via
// logf. Every scenario exports its Chrome trace and canonical flight dump
// into traceDir (when non-empty) as <name>.trace.json / <name>.flight.json
// — rank chaos always leaves artifacts, because the interesting runs are
// the ones that recovered. Each also writes <name>.report.txt, the run's
// differential report (faulted attempt plus recovery) against a fault-free
// single-attempt baseline of the same engine and direction. It returns the
// number of invariant violations.
func RankSoak(scenarios []RankScenario, traceDir string, logf func(format string, args ...any)) int {
	failures := 0
	bl := baselines{}
	for _, s := range scenarios {
		out, err := s.Run()
		status := "ok"
		if err != nil {
			failures++
			status = "FAIL: " + err.Error()
		}
		if out == nil {
			logf("%-40s %s", s.Name(), status)
			continue
		}
		logf("%-40s class=%-12s dead=%-8v trips=%-3d replay=%-3d skip=%-3d redeliver=%-3d t=%8.3fms  %s",
			s.Name(), mpiio.ClassName(out.AbortClass), out.Dead, out.DeadlineTrips,
			out.Replayed, out.Skipped, out.Redelivered, float64(out.Elapsed)*1e3, status)
		if traceDir == "" {
			continue
		}
		if out.Trace != nil {
			path := traceDir + "/" + s.Name() + ".trace.json"
			if werr := out.Trace.WriteChromeTraceFile(path); werr != nil {
				logf("  trace export failed: %v", werr)
			}
			path = traceDir + "/" + s.Name() + ".critpath.txt"
			if werr := writeCritPathFile(out.Trace, path); werr != nil {
				logf("  critpath export failed: %v", werr)
			}
		}
		if out.Metrics != nil {
			path := traceDir + "/" + s.Name() + ".flight.json"
			if werr := writeFlightFile(out.Metrics, path); werr != nil {
				logf("  flight export failed: %v", werr)
			}
		}
		if out.Comm != nil {
			path := traceDir + "/" + s.Name() + ".comm.json"
			if werr := writeCommFile(out.Comm, path); werr != nil {
				logf("  comm export failed: %v", werr)
			}
		}
		if out.Metrics != nil {
			// The baseline shares the engine, direction, and 4-rank chaos
			// tile; rank scenarios run the core methods' default sieve.
			base := Scenario{Engine: s.Engine, Write: !s.read(), Method: mpiio.DataSieve, Seed: 1}
			path := traceDir + "/" + s.Name() + ".report.txt"
			if werr := writeReportFile(bl.source(base), out.Metrics, s.Name(), path); werr != nil {
				logf("  report export failed: %v", werr)
			}
		}
	}
	return failures
}
