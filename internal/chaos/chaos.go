// Package chaos is a deterministic fault-injection harness for the
// collective I/O engine. One Scenario arms up to three fault planes on a
// 4-rank tile — storage faults (pfs errors, partial transfers, brownouts,
// lock-revoke storms), rank faults (crashes, stragglers, message drops)
// and silent corruption (wire and at-rest bit damage) — across every
// engine configuration and both transfer directions, and checks the one
// contract the fault model promises:
//
//   - Agreement: the faulted collective either completes on every live
//     rank or returns an error of the same class on every live rank
//     (wrapping ErrCollectiveAbort) — and it always returns: no deadlock.
//   - Integrity: a completed or recovered collective leaves bytes
//     identical to a fault-free run, verified against an independently
//     computed reference image. Rank failures recover by revive and
//     resume; unrepairable corruption recovers by a clean heal rewrite;
//     storage aborts end in their typed class.
//   - Accounting: the injection provably fired (its counter moved),
//     recovery work is visible in virtual time — the trace and the stats
//     agree on the backoff cost to within 1% — and the trace stays well
//     formed (balanced spans, monotone clocks).
//
// Every scenario is seeded and virtual-timed, so a failure reproduces
// exactly from its one-line spec (ParseSpec) and leaves its trace,
// critical path, flight dump, comm matrix and differential report.
package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"

	"flexio/internal/core"
	"flexio/internal/datatype"
	"flexio/internal/hpio"
	"flexio/internal/integrity"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
	"flexio/internal/stats"
	"flexio/internal/trace"
)

// Fault names a storage-plane injection pattern.
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
	// FaultSieveHard injects hard errors only into sieve writes; with
	// Degraded set the engine falls back to naive I/O and completes,
	// otherwise it aborts with the io class.
	FaultSieveHard Fault = "sieve-hard"

	// FaultNone names the fault-free run of a scenario's engine
	// configuration: the baseline its .report.txt artifact diffs against.
	FaultNone Fault = "none"
)

// RankFault names a rank-plane injection pattern — process failures, as
// opposed to the storage failures of Fault. The two compose: the
// "crash-brownout" spec is RankCrashMid with FaultBrownout, and
// "crash-mid-read" is RankCrashMid on the read direction.
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
)

// CorruptPlane names where a scenario injects silent bit damage.
type CorruptPlane string

const (
	// CorruptWire flips payload bits in flight on every link: the
	// receiver-side wire checksum must catch each one.
	CorruptWire CorruptPlane = "wire"
	// CorruptAtRest flips a stored bit after the bytes land on the media:
	// the per-stripe-block checksum must catch it on the next read.
	CorruptAtRest CorruptPlane = "atrest"
	// CorruptTorn loses the tail of written segments (torn write): reads
	// see zeros where data should be, caught like any at-rest mismatch.
	CorruptTorn CorruptPlane = "torn"
)

// Rank-plane timing: the collective deadline, the straggler stall (far
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

// integrityRepeatUnrepairable is one past the bounded wire re-request
// budget: every delivery attempt of a hit arrives corrupted, so the
// receiver can never pull a clean copy.
const integrityRepeatUnrepairable = 4

// Scenario is one deterministic chaos experiment. Every fault plane is
// optional and they compose; a scenario with none armed is the fault-free
// baseline.
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
	// Preagg enables node-local pre-aggregation, so the fault planes also
	// exercise the two-level exchange (chaos worlds run under a node map of
	// nodeRanks ranks per node).
	Preagg bool
	// Seed drives every plane's probability coins and the checksum domain.
	Seed int64

	// Fault is the storage-plane injection pattern.
	Fault Fault

	// Rank is the rank-plane injection pattern, aimed at Victim.
	Rank   RankFault
	Victim int
	// CbNodes caps the aggregator count (0 = every rank aggregates).
	// Killing a rank at or above it exercises the journal's same-epoch
	// skip path: a dead pure client moves no realms.
	CbNodes int

	// Plane is where silent corruption is injected; setting it turns the
	// checksummed datapath on.
	Plane CorruptPlane
	// Repairable selects the corruption recovery budget: true leaves the
	// repair path available (wire: one corrupted delivery per hit, inside
	// the re-request bound; at-rest: a retained-block ring large enough to
	// hold the working set), false exhausts it, forcing the
	// ErrDataIntegrity abort and the heal rewrite.
	Repairable bool
}

// pattern names the scenario's fault pattern: the rank fault, the
// corruption plane and budget, or the storage fault.
func (s Scenario) pattern() string {
	switch {
	case s.Rank == RankCrashMid && s.Fault == FaultBrownout:
		return "crash-brownout"
	case s.Rank == RankCrashMid && !s.Write:
		return "crash-mid-read"
	case s.Rank != "":
		return string(s.Rank)
	case s.Plane != "" && s.Repairable:
		return string(s.Plane) + "-repair"
	case s.Plane != "":
		return string(s.Plane) + "-abort"
	}
	return string(s.Fault)
}

// Name is a stable identifier for logs, subtests, and artifact file names.
func (s Scenario) Name() string {
	dir := "read"
	if s.Write {
		dir = "write"
	}
	var n string
	switch {
	case s.Rank != "":
		n = fmt.Sprintf("%s-%s-v%d", s.Engine, s.pattern(), s.Victim)
		if s.CbNodes > 0 {
			n += fmt.Sprintf("-cb%d", s.CbNodes)
		}
	case s.Plane != "":
		n = fmt.Sprintf("%s-%s-corrupt-%s", s.Engine, dir, s.pattern())
	default:
		n = fmt.Sprintf("%s-%s-%s-%s", s.Engine, dir, s.Method, s.pattern())
	}
	if s.Degraded {
		n += "-degraded"
	}
	if s.Preagg {
		n += "-pre"
	}
	return n
}

// clean is the scenario with every fault field cleared: the fault-free run
// its differential report diffs against.
func (s Scenario) clean() Scenario {
	return Scenario{Engine: s.Engine, Write: s.Write, Method: s.Method,
		Degraded: s.Degraded, Preagg: s.Preagg, Seed: s.Seed, Fault: FaultNone}
}

// crashes reports whether the victim's goroutine dies (as opposed to
// running late or dropping messages).
func (s Scenario) crashes() bool { return s.Rank == RankCrashShuffle || s.Rank == RankCrashMid }

// atRest reports whether the corruption lands on the media.
func (s Scenario) atRest() bool { return s.Plane == CorruptAtRest || s.Plane == CorruptTorn }

// wantClass is the error class the faulted phase must agree on (ClassOK
// means it must complete on every rank).
func (s Scenario) wantClass() int64 {
	switch {
	case s.Rank != "" && s.Rank != RankDropStorm:
		return mpiio.ClassUnresponsive
	case s.Plane != "" && !s.Repairable:
		return mpiio.ClassIntegrity
	}
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
	}
	return mpiio.ClassOK
}

// wantCounter names a stat that must be nonzero after the run, proving the
// storage injection actually exercised the path under test (empty =
// nothing to prove).
func (s Scenario) wantCounter() string {
	switch s.Fault {
	case "", FaultNone:
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
	}
	return stats.CFaultsInjected
}

// pfsSchedule builds the storage and at-rest corruption plan (empty when
// neither plane is armed).
func (s Scenario) pfsSchedule() *pfs.FaultSchedule {
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
	if s.atRest() {
		// Every write segment is flipped (or torn), so whichever write
		// lands last on a page leaves detectable damage for the next read.
		kind := "bitflip"
		if s.Plane == CorruptTorn {
			kind = "torn"
		}
		sched.AddFlip(pfs.FlipRule{Kind: kind})
	}
	return sched
}

// rankSchedule builds the rank-fault and wire corruption plan (nil when
// neither plane is armed). Wire corruption hits every payload on every
// link, with the repeat budget deciding repairability; the unlimited count
// keeps the plan independent of goroutine scheduling.
func (s Scenario) rankSchedule() *mpi.RankFaultSchedule {
	if s.Rank == "" && s.Plane != CorruptWire {
		return nil
	}
	rf := mpi.NewRankFaultSchedule(s.Seed)
	switch s.Rank {
	case RankCrashShuffle:
		rf.Crash(s.Victim, 0)
	case RankCrashMid:
		rf.Crash(s.Victim, 2)
	case RankStraggler:
		rf.Stall(s.Victim, 1, rankStall)
	case RankDropStorm:
		rf.Drop(s.Victim, mpi.Any, 0.4, rankDropPen, 0)
	}
	if s.Plane == CorruptWire {
		repeat := 1
		if !s.Repairable {
			repeat = integrityRepeatUnrepairable
		}
		rf.Corrupt(mpi.Any, mpi.Any, 1, repeat, 0)
	}
	return rf
}

// ringCap sizes the retained-block repair ring: the default (sized for the
// chaos tile's working set) when corruption is repairable, and a single
// slot otherwise, so every quarantined page but the most recent one has
// aged out and the read must surface ErrDataIntegrity.
func (s Scenario) ringCap() int {
	if s.Repairable {
		return 0
	}
	return 1
}

// options maps the scenario's engine label to its core configuration:
// "core-a2a" is the Alltoallw exchange, "twophase" the ROMIO baseline
// (core.ROMIO, whose integrated sieve overrides Method), and anything else
// the nonblocking pipeline.
func (s Scenario) options() core.Options {
	o := core.Options{Method: s.Method}
	switch s.Engine {
	case "core-a2a":
		o.Comm = core.Alltoallw
	case "twophase":
		o = core.ROMIO()
	}
	o.Preagg = s.Preagg
	o.Degraded = s.Degraded
	return o
}

// Outcome reports what one scenario run observed across the faulted phase
// and its recovery.
type Outcome struct {
	Scenario Scenario
	// Class is the error class the faulted phase agreed on (ClassOK when
	// it completed on every rank).
	Class int64
	// Dead is the failed-rank set detection produced.
	Dead []int
	// Injected counts faults every armed schedule fired.
	Injected int64
	// PreRounds is the journal's committed (agg, round) count at abort
	// time — the work a rank-fault recovery gets to keep when the epoch
	// survives.
	PreRounds int64
	// Replayed / Skipped / Failovers / DeadlineTrips / Redelivered are
	// the merged failover counters.
	Replayed, Skipped, Failovers, DeadlineTrips, Redelivered int64
	// WireMismatch / WireRepaired are the merged wire-checksum counters.
	WireMismatch, WireRepaired int64
	// AtRest is the file system's at-rest integrity snapshot after the
	// faulted phase (and a rank-fault resume); a heal rewrite refreshes
	// only its Backlog.
	AtRest integrity.Stats
	// Healed reports that the clean heal rewrite restored the file after
	// an unrepairable corruption abort.
	Healed bool
	// Elapsed is the total virtual time across all phases.
	Elapsed sim.Time
	// Stats is the merged per-rank recorder.
	Stats *stats.Recorder
	// Trace is the virtual-time event record, exportable as a Chrome
	// trace for postmortems.
	Trace *trace.Sink
	// Metrics is the live registry set; its flight recorder holds the
	// rounds leading up to an abort.
	Metrics *metrics.Set
	// Comm is the rank×rank communication matrix of the faulted phase and
	// its recovery.
	Comm *mpi.CommMatrix
}

// Line is the one-line soak summary: the agreed class and injection count,
// then the storage (retry/resume), rank (dead/trips/replay/skip/redeliver)
// and corruption (repaired/mismatched per plane, backlog) counters.
func (o *Outcome) Line() string {
	return fmt.Sprintf("%-44s class=%-12s inj=%-4d retry=%-3d resume=%-3d dead=%-4v trips=%-2d replay=%-3d skip=%-2d redeliver=%-2d wire=%d/%d rest=%d/%d backlog=%d t=%8.3fms",
		o.Scenario.Name(), mpiio.ClassName(o.Class), o.Injected,
		o.Stats.Counter(stats.CRetries), o.Stats.Counter(stats.CPartialResumes),
		fmt.Sprint(o.Dead), o.DeadlineTrips, o.Replayed, o.Skipped, o.Redelivered,
		o.WireRepaired, o.WireMismatch, o.AtRest.Repairs, o.AtRest.Mismatches, o.AtRest.Backlog,
		float64(o.Elapsed)*1e3)
}

// nodeRanks is the block node-mapping width chaos worlds run under, so
// comm-matrix artifacts split shuffle bytes into inter- and intra-node
// (matching benchsuite.NodeRanks).
const nodeRanks = 2

// tile is the workload every scenario runs: a gapped interleaved pattern
// whose holes keep aggregator accesses noncontiguous (exercising data
// sieving and its RMW prefetch), while the small collective buffer splits
// each access into several rounds.
var tile = hpio.Pattern{Ranks: 4, RegionSize: 64, RegionCount: 32, Spacing: 64}

// Run executes the scenario and checks every invariant. The returned error
// is an invariant violation (nil means the scenario behaved); the Outcome
// is returned even on violation so the caller can export its artifacts.
func (s Scenario) Run() (*Outcome, error) {
	const fname = "chaos.dat"
	cfg := sim.DefaultConfig()
	w := mpi.NewWorld(tile.Ranks, cfg)
	fs := pfs.NewFileSystem(cfg)
	if s.Plane != "" {
		w.EnableIntegrity(s.Seed)
		fs.EnableIntegrity(s.Seed, s.ringCap())
	}
	sched := s.pfsSchedule()

	// Reads verify against a file seeded through the trusted independent
	// path. At-rest corruption rides the seeding writes — that is how the
	// damage gets to rest under recorded checksums.
	if !s.Write {
		if s.atRest() {
			fs.SetFaultSchedule(sched)
		}
		if err := seedFile(w, fs, fname); err != nil {
			return nil, fmt.Errorf("chaos: seeding %s: %w", s.Name(), err)
		}
		fs.SetFaultSchedule(nil)
	}

	// Trace and time only the faulted phase and its recovery.
	sink := w.EnableTracing(0)
	met := w.EnableMetrics()
	comm := w.EnableCommMatrix()
	w.SetNodeMap(mpi.BlockNodeMap(nodeRanks))
	w.ResetClocks()
	fs.ResetTiming()
	fs.SetFaultSchedule(sched)
	rf := s.rankSchedule()
	w.SetRankFaults(rf)
	opts := s.options()
	var journal *mpiio.WriteJournal
	if s.Rank != "" {
		w.SetCollDeadline(rankDeadline)
		journal = mpiio.NewWriteJournal()
		opts.Journal = journal
	}

	// attempt runs one collective transfer on every rank and returns the
	// per-rank results (nil error and false mismatch for a rank whose
	// goroutine a crash killed mid-call).
	attempt := func(coll mpiio.Collective, write bool, collBuf int64) ([]error, []bool) {
		errs := make([]error, tile.Ranks)
		mism := make([]bool, tile.Ranks)
		w.Run(func(p *mpi.Proc) {
			f, err := mpiio.Open(p, fs, fname, mpiio.Info{
				Collective:  coll,
				CollBufSize: collBuf,
				CbNodes:     s.CbNodes,
				RetryLimit:  6,
			})
			if err != nil {
				errs[p.Rank()] = err
				return
			}
			ft, disp := tile.Filetype(p.Rank())
			if err := f.SetView(disp, datatype.Bytes(1), ft); err != nil {
				errs[p.Rank()] = err
				return
			}
			mt, bufLen := tile.Memtype()
			if write {
				errs[p.Rank()] = f.WriteAll(tile.FillBuffer(p.Rank()), mt, tile.RegionCount)
			} else {
				buf := make([]byte, bufLen)
				if err := f.ReadAll(buf, mt, tile.RegionCount); err != nil {
					errs[p.Rank()] = err
				} else {
					got, _ := datatype.Pack(buf, mt, 0, tile.RegionCount)
					exp, _ := datatype.Pack(tile.FillBuffer(p.Rank()), mt, 0, tile.RegionCount)
					mism[p.Rank()] = !bytes.Equal(got, exp)
				}
			}
			f.Close()
		})
		return errs, mism
	}

	out := &Outcome{Scenario: s, Trace: sink, Metrics: met, Comm: comm}
	refresh := func() {
		m := met.Merged()
		out.Injected = sched.Injected()
		if rf != nil {
			out.Injected += rf.Injected()
		}
		out.Replayed = m.Counter(metrics.CRoundsReplayed)
		out.Skipped = m.Counter(metrics.CRoundsSkipped)
		out.Failovers = m.Counter(metrics.CFailovers)
		out.DeadlineTrips = m.Counter(metrics.CDeadlineTrips)
		out.Redelivered = m.Counter(metrics.CRedelivered)
		out.WireMismatch = m.Counter(metrics.CIntegWireMismatch)
		out.WireRepaired = m.Counter(metrics.CIntegWireRepaired)
		out.AtRest = fs.IntegrityStats()
		out.Elapsed = w.MaxClock()
		out.Stats = stats.Merge(w.Recorders()...)
	}

	// Phase 1: the faulted transfer. Corrupted writes follow with a
	// verifying collective read-back, the phase where at-rest damage is
	// detected.
	coll := core.New(opts)
	errs, mism := attempt(coll, s.Write, 1024)
	if s.Plane != "" && s.Write && allNil(errs) {
		errs, mism = attempt(coll, false, 1024)
	}
	out.Dead = w.FailedRanks()
	if journal != nil {
		out.PreRounds = journal.Rounds()
	}
	refresh()

	// Invariant 1: agreement on the expected class. A crashed victim's
	// goroutine never returns, so it has no say.
	class, err := agree(errs, func(r int) bool { return s.crashes() && slices.Contains(out.Dead, r) })
	out.Class = class
	if err != nil {
		return out, err
	}
	if want := s.wantClass(); out.Class != want {
		return out, fmt.Errorf("agreed class %s, want %s (errors: %v)",
			mpiio.ClassName(out.Class), mpiio.ClassName(want), errs)
	}

	// Invariant 2: every armed plane fired and was detected.
	if err := s.checkFired(out); err != nil {
		return out, err
	}

	// Invariant 3: recovery. Completed runs have nothing to recover and
	// storage aborts end in their typed class; a rank failure revives and
	// resumes with realms reassigned off the dead ranks, and unrepairable
	// corruption heals by a clean rewrite.
	switch out.Class {
	case mpiio.ClassOK:
	case mpiio.ClassUnresponsive:
		// The crashed process restarts and rejoins, the dead ranks lose
		// aggregator duty, and the journal lets same-epoch reruns skip the
		// rounds already durable.
		w.ReviveAll()
		errs, mism = attempt(core.ResumeCollective(opts, journal, out.Dead), s.Write, 1024)
		for r, err := range errs {
			if err != nil {
				return out, fmt.Errorf("rank %d failed on resume: %v", r, err)
			}
		}
		refresh()
		if err := s.checkResume(out); err != nil {
			return out, err
		}
	case mpiio.ClassIntegrity:
		// With the fault planes cleared, a full rewrite through the normal
		// datapath (the journal-replay repair in miniature) heals the
		// quarantine. It uses block-aligned windows, because clearing a
		// quarantine demands a window that repaves the whole block.
		w.SetRankFaults(nil)
		fs.SetFaultSchedule(nil)
		if errs, _ = attempt(coll, true, cfg.PageSize); !allNil(errs) {
			return out, fmt.Errorf("clean heal rewrite failed: %v", errs)
		}
		if errs, mism = attempt(coll, false, cfg.PageSize); !allNil(errs) {
			return out, fmt.Errorf("reading back the healed file failed: %v", errs)
		}
		// The outcome keeps the faulted phase's detection counts; only the
		// backlog moves on.
		out.AtRest.Backlog = fs.IntegrityStats().Backlog
		out.Elapsed = w.MaxClock()
		if out.AtRest.Backlog != 0 {
			return out, fmt.Errorf("heal rewrite left %d blocks quarantined", out.AtRest.Backlog)
		}
		out.Healed = true
	default:
		return out, s.checkTrace(out)
	}

	// Invariant 4: accounting holds across every phase, and the bytes are
	// identical to a fault-free run.
	if err := s.checkTrace(out); err != nil {
		return out, err
	}
	return out, verifyData(fs, fname, mism)
}

// agree returns the class every live rank agreed on: all of them
// succeeded (ClassOK), or all failed with the same class wrapping
// ErrCollectiveAbort. Ranks for which dead reports true are skipped.
func agree(errs []error, dead func(rank int) bool) (int64, error) {
	first, failed, live := -1, 0, 0
	for r, err := range errs {
		if dead(r) {
			continue
		}
		if first < 0 {
			first = r
		}
		live++
		if err != nil {
			failed++
		}
	}
	if failed != 0 && failed != live {
		return mpiio.ClassOK, fmt.Errorf("agreement violated: %d of %d live ranks errored: %v", failed, live, errs)
	}
	class := mpiio.ErrorClass(errs[first])
	for r, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, mpiio.ErrCollectiveAbort) {
			return class, fmt.Errorf("rank %d error does not wrap ErrCollectiveAbort: %v", r, err)
		}
		if c := mpiio.ErrorClass(err); c != class {
			return class, fmt.Errorf("rank %d agreed class %s, rank %d %s",
				r, mpiio.ClassName(c), first, mpiio.ClassName(class))
		}
	}
	return class, nil
}

// checkFired proves every armed plane hit the path under test: storage
// faults fired and moved their counter, a rank fault was detected (or, for
// drop-storm, redelivered), and corruption tripped its checksum — silent
// corruption with the checksummed datapath on is the one forbidden
// outcome. Repairable corruption must also show its repairs.
func (s Scenario) checkFired(out *Outcome) error {
	if s.Fault != "" && s.Fault != FaultNone && s.Fault != FaultBrownout && s.Fault != FaultStorm && out.Injected == 0 {
		return fmt.Errorf("fault schedule never fired")
	}
	if c := s.wantCounter(); c != "" && out.Stats.Counter(c) == 0 {
		return fmt.Errorf("counter %q stayed zero", c)
	}
	switch {
	case s.Rank == RankDropStorm:
		if out.Injected == 0 || out.Redelivered == 0 {
			return fmt.Errorf("drop schedule never fired (injected=%d redelivered=%d)",
				out.Injected, out.Redelivered)
		}
	case s.Rank != "":
		if !slices.Contains(out.Dead, s.Victim) {
			return fmt.Errorf("victim %d not in detected dead set %v", s.Victim, out.Dead)
		}
		if out.DeadlineTrips == 0 {
			return fmt.Errorf("deadline_trips stayed zero across an unresponsive abort")
		}
	}
	if s.Plane == "" {
		return nil
	}
	if out.Injected == 0 {
		return fmt.Errorf("corruption schedule never fired")
	}
	if s.Plane == CorruptWire {
		if out.WireMismatch == 0 {
			return fmt.Errorf("wire checksum never tripped across %d injections", out.Injected)
		}
		if s.Repairable && out.WireRepaired == 0 {
			return fmt.Errorf("no wire repair recorded")
		}
		return nil
	}
	switch {
	case out.AtRest.Mismatches == 0:
		return fmt.Errorf("at-rest checksum never tripped across %d injections", out.Injected)
	case s.Repairable && out.AtRest.Repairs == 0:
		return fmt.Errorf("no at-rest repair recorded")
	case s.Repairable && out.AtRest.Backlog != 0:
		return fmt.Errorf("repairable run left %d blocks quarantined", out.AtRest.Backlog)
	case !s.Repairable && out.AtRest.Backlog == 0:
		return fmt.Errorf("unrepairable at-rest damage left no quarantine backlog")
	}
	return nil
}

// checkResume checks a rank-fault recovery used the journal: the resume
// recorded a failover, a write resume journalled its rounds, and a dead
// pure client (which moves no realms) kept everything committed before a
// mid-collective crash.
func (s Scenario) checkResume(out *Outcome) error {
	if out.Failovers == 0 {
		return fmt.Errorf("resume recorded no failover")
	}
	if !s.Write {
		return nil
	}
	if out.Replayed+out.Skipped == 0 {
		return fmt.Errorf("resume journalled no rounds (replayed=%d skipped=%d)", out.Replayed, out.Skipped)
	}
	if s.Rank == RankCrashMid && s.CbNodes > 0 && s.Victim >= s.CbNodes {
		if out.PreRounds == 0 {
			return fmt.Errorf("mid-collective crash committed no rounds before dying")
		}
		if out.Skipped == 0 {
			return fmt.Errorf("client-victim resume replayed everything (skipped=0, pre=%d)", out.PreRounds)
		}
	}
	return nil
}

// checkTrace checks accounting: the trace is well formed and agrees with
// the stats on the virtual-time cost of backoff to within 1%.
func (s Scenario) checkTrace(out *Outcome) error {
	if err := out.Trace.Check(); err != nil {
		return fmt.Errorf("trace malformed: %w", err)
	}
	sb := out.Stats.Time(stats.PBackoff)
	tb := out.Trace.Breakdown().PhaseTotal(stats.PBackoff)
	if drift := math.Abs(float64(sb - tb)); sb > 0 && drift > 0.01*float64(sb) {
		return fmt.Errorf("backoff drift: stats %v vs trace %v", sb, tb)
	}
	return nil
}

// seedFile writes the tile's reference file through the trusted
// independent path.
func seedFile(w *mpi.World, fs *pfs.FileSystem, fname string) error {
	errs := make([]error, tile.Ranks)
	w.Run(func(p *mpi.Proc) {
		f, err := mpiio.Open(p, fs, fname, mpiio.Info{IndepMethod: mpiio.ListIO})
		if err != nil {
			errs[p.Rank()] = err
			return
		}
		ft, disp := tile.Filetype(p.Rank())
		if err := f.SetView(disp, datatype.Bytes(1), ft); err != nil {
			errs[p.Rank()] = err
			return
		}
		mt, _ := tile.Memtype()
		if err := f.WriteIndependent(tile.FillBuffer(p.Rank()), mt, tile.RegionCount); err != nil {
			errs[p.Rank()] = err
			return
		}
		errs[p.Rank()] = f.Close()
	})
	return errors.Join(errs...)
}

// verifyData checks byte-identity with a fault-free run: the per-rank
// read-back buffers of the last read, and the file image against the
// tile's independent reference.
func verifyData(fs *pfs.FileSystem, fname string, mism []bool) error {
	for r, bad := range mism {
		if bad {
			return fmt.Errorf("rank %d: read-back bytes diverge from the reference", r)
		}
	}
	img := fs.Snapshot(fname, tile.FileSize())
	ref := tile.Reference()
	for i := range ref {
		if img[i] != ref[i] {
			return fmt.Errorf("file byte %d = %d, want %d (not byte-identical to a fault-free run)",
				i, img[i], ref[i])
		}
	}
	return nil
}

func allNil(errs []error) bool {
	for _, err := range errs {
		if err != nil {
			return false
		}
	}
	return true
}

// Matrix enumerates the scenario grid, one fault plane per row group.
// Seeds are a deterministic function of the row index within each plane.
//
//   - Storage: both engines (and both core exchange protocols), both
//     directions, the buffered I/O methods, and every storage fault; the
//     degraded-mode sieve-hard recovery; and pre-aggregation riding the
//     retry, partial and hard-abort paths.
//   - Rank: every engine against every rank fault, with aggregator and
//     pure-client victims for the mid-collective crash (the latter
//     exercises the journal's same-epoch skip path), crash+brownout
//     compositions, crashed reads, and pre-aggregation leader and member
//     failover.
//   - Corruption: every engine, both directions, wire and at-rest planes
//     with repairable and exhausted budgets, torn writes, and the
//     pre-aggregation leader gather and scatter.
func Matrix() []Scenario {
	var ms []Scenario
	i := int64(0)
	add := func(base int64, s Scenario) {
		i++
		s.Seed = base + i
		ms = append(ms, s)
	}

	engines := []struct {
		name   string
		method mpiio.Method
	}{
		{"core-nb", mpiio.DataSieve},
		{"core-nb", mpiio.ListIO},
		{"core-a2a", mpiio.DataSieve},
		{"twophase", mpiio.DataSieve},
	}
	for _, e := range engines {
		for _, write := range []bool{true, false} {
			for _, f := range []Fault{FaultTransient, FaultPartial, FaultRound1, FaultBrownout, FaultStorm, FaultGiveup} {
				add(1000, Scenario{Engine: e.name, Write: write, Method: e.method, Fault: f})
			}
		}
	}
	for _, e := range []string{"core-nb", "core-a2a"} {
		for _, degraded := range []bool{false, true} {
			add(1000, Scenario{Engine: e, Write: true, Method: mpiio.DataSieve, Degraded: degraded, Fault: FaultSieveHard})
		}
	}
	for _, e := range []string{"core-nb", "core-a2a", "twophase"} {
		for _, write := range []bool{true, false} {
			for _, f := range []Fault{FaultTransient, FaultPartial, FaultRound1} {
				add(1000, Scenario{Engine: e, Write: write, Method: mpiio.DataSieve, Fault: f, Preagg: true})
			}
		}
	}

	i = 0
	rank := func(s Scenario) {
		s.Method = mpiio.DataSieve
		add(7000, s)
	}
	for _, e := range []string{"core-nb", "core-a2a", "twophase"} {
		rank(Scenario{Engine: e, Write: true, Rank: RankCrashShuffle, Victim: 1})
		rank(Scenario{Engine: e, Write: true, Rank: RankCrashMid, Victim: 1})             // aggregator victim: realms move, fresh epoch
		rank(Scenario{Engine: e, Write: true, Rank: RankCrashMid, Victim: 3, CbNodes: 2}) // pure-client victim: same epoch, journal skips
		rank(Scenario{Engine: e, Write: true, Rank: RankStraggler, Victim: 2})            // aggregator running late, not dead
		rank(Scenario{Engine: e, Write: true, Rank: RankDropStorm, Victim: 1})
		rank(Scenario{Engine: e, Write: true, Rank: RankCrashMid, Victim: 1, Fault: FaultBrownout}) // rank + storage planes composed
	}
	rank(Scenario{Engine: "core-nb", Rank: RankCrashMid, Victim: 1})
	rank(Scenario{Engine: "core-a2a", Rank: RankCrashMid, Victim: 1})
	// Pre-aggregation failover: nodes span nodeRanks consecutive ranks, so
	// rank 0 leads node 0 and rank 1 is its member. A leader crash forces
	// the resume to elect the next live co-resident (PlanNode excludes the
	// dead set); a member crash aborts through the leader's seeded error.
	for _, e := range []string{"core-nb", "core-a2a", "twophase"} {
		rank(Scenario{Engine: e, Write: true, Rank: RankCrashMid, Victim: 0, Preagg: true})     // leader dies mid-rounds
		rank(Scenario{Engine: e, Write: true, Rank: RankCrashShuffle, Victim: 1, Preagg: true}) // member dies before any round data
	}
	rank(Scenario{Engine: "core-nb", Rank: RankCrashMid, Victim: 0, Preagg: true}) // leader dies mid-read: scatter must abort uniformly

	i = 0
	corrupt := func(engine string, write bool, plane CorruptPlane, repairable, pre bool) {
		add(9000, Scenario{Engine: engine, Write: write, Method: mpiio.DataSieve,
			Plane: plane, Repairable: repairable, Preagg: pre})
	}
	for _, e := range []string{"core-nb", "core-a2a", "twophase"} {
		for _, write := range []bool{true, false} {
			for _, plane := range []CorruptPlane{CorruptWire, CorruptAtRest} {
				corrupt(e, write, plane, true, false)
				corrupt(e, write, plane, false, false)
			}
		}
		corrupt(e, true, CorruptTorn, true, false)
	}
	for _, e := range []string{"core-nb", "core-a2a", "twophase"} {
		corrupt(e, true, CorruptWire, true, true)
		corrupt(e, false, CorruptWire, true, true)
		corrupt(e, true, CorruptAtRest, true, true)
	}
	return ms
}

// Quick is the short-mode subset: the first scenario of every fault
// pattern.
func Quick() []Scenario {
	seen := map[string]bool{}
	var qs []Scenario
	for _, s := range Matrix() {
		if p := s.pattern(); !seen[p] {
			seen[p] = true
			qs = append(qs, s)
		}
	}
	return qs
}
