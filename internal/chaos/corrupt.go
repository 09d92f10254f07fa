package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

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

// CorruptPlane names where a corruption scenario injects bit damage.
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

// CorruptScenario is one deterministic silent-corruption experiment. The
// property under test is the end-to-end integrity contract: every injected
// flip is either repaired byte-identically or ends in a uniform
// ErrDataIntegrity abort — never silent divergence. The gate is the
// survivor file's bytes (writes) or the per-rank read-back buffers
// (reads), always against a fault-free reference.
type CorruptScenario struct {
	// Engine selects the collective: "core-nb", "core-a2a", or "twophase".
	Engine string
	// Write selects the transfer direction the corruption rides on.
	Write bool
	// Plane is where the corruption is injected.
	Plane CorruptPlane
	// Repairable selects the recovery budget: true leaves the repair path
	// available (wire: one corrupted delivery per hit, inside the
	// re-request bound; at-rest: a retained-block ring large enough to
	// hold the working set), false exhausts it, forcing the
	// ErrDataIntegrity abort.
	Repairable bool
	// Preagg enables node-local pre-aggregation, so the corruption also
	// rides the two-level exchange's leader gather and scatter.
	Preagg bool
	// Seed drives the fault coins and the checksum domain.
	Seed int64
}

// Name is a stable identifier for logs, subtests, and artifact file names.
func (s CorruptScenario) Name() string {
	dir := "read"
	if s.Write {
		dir = "write"
	}
	mode := "abort"
	if s.Repairable {
		mode = "repair"
	}
	n := fmt.Sprintf("%s-%s-corrupt-%s-%s", s.Engine, dir, s.Plane, mode)
	if s.Preagg {
		n += "-pre"
	}
	return n
}

// collective instantiates the engine under test.
func (s CorruptScenario) collective() mpiio.Collective {
	return core.New(engineOptions(s.Engine, mpiio.DataSieve, s.Preagg))
}

// wireSchedule builds the in-flight corruption plan: every payload on
// every link is corrupted, with the repeat budget deciding repairability.
// Unlimited count keeps the plan independent of goroutine scheduling.
func (s CorruptScenario) wireSchedule() *mpi.RankFaultSchedule {
	repeat := 1
	if !s.Repairable {
		repeat = integrityRepeatUnrepairable
	}
	return mpi.NewRankFaultSchedule(s.Seed).Corrupt(mpi.Any, mpi.Any, 1, repeat, 0)
}

// integrityRepeatUnrepairable is one past the bounded re-request budget:
// every delivery attempt of a hit arrives corrupted, so the receiver can
// never pull a clean copy.
const integrityRepeatUnrepairable = 4

// flipSchedule builds the at-rest corruption plan: every write segment is
// flipped (or torn), so whichever write lands last on a page leaves
// detectable damage for the next read.
func (s CorruptScenario) flipSchedule() *pfs.FaultSchedule {
	sched := pfs.NewFaultSchedule(s.Seed)
	kind := "bitflip"
	if s.Plane == CorruptTorn {
		kind = "torn"
	}
	sched.AddFlip(pfs.FlipRule{Kind: kind})
	return sched
}

// atRestRingCap sizes the retained-block repair ring: generous for
// repairable scenarios (the chaos tile's working set fits), and a single
// slot otherwise, so every quarantined page but the most recent one has
// aged out and the read must surface ErrDataIntegrity.
func (s CorruptScenario) atRestRingCap() int {
	if s.Repairable {
		return 0 // default, sized for the chaos matrices
	}
	return 1
}

// CorruptOutcome reports what one corruption scenario observed.
type CorruptOutcome struct {
	Scenario CorruptScenario
	// Class is the agreed error class of the phase where detection had to
	// happen (ClassOK when the datapath repaired everything inline).
	Class int64
	// Injected counts corruption events the schedules fired.
	Injected int64
	// WireMismatch / WireRepaired are the merged wire-checksum counters.
	WireMismatch, WireRepaired int64
	// AtRest is the file system's at-rest integrity snapshot.
	AtRest integrity.Stats
	// Healed reports that the post-abort clean rerun restored the file to
	// the byte-identical reference (abort scenarios only).
	Healed bool
	// Elapsed is the total virtual time across all phases.
	Elapsed sim.Time
	Trace   *trace.Sink
	Metrics *metrics.Set
	// Stats is the merged per-rank recorder.
	Stats *stats.Recorder
}

// Run executes the scenario and checks the integrity invariants. The
// returned error is an invariant violation (nil means the scenario
// behaved); the outcome is returned even on violation so the caller can
// export trace and flight artifacts.
func (s CorruptScenario) Run() (*CorruptOutcome, error) {
	wl := hpio.Pattern{Ranks: 4, RegionSize: 64, RegionCount: 32, Spacing: 64}
	cfg := sim.DefaultConfig()
	w := mpi.NewWorld(wl.Ranks, cfg)
	fs := pfs.NewFileSystem(cfg)
	w.EnableIntegrity(s.Seed)
	fs.EnableIntegrity(s.Seed, s.atRestRingCap())
	const fname = "corrupt.dat"

	atRest := s.Plane != CorruptWire
	var sched *pfs.FaultSchedule
	if atRest {
		sched = s.flipSchedule()
	}

	// Read scenarios verify against a seeded file. At-rest read scenarios
	// arm the flip schedule during the seeding writes — that is how the
	// corruption gets to rest under recorded checksums — while wire read
	// scenarios seed fault-free.
	if !s.Write {
		if atRest {
			fs.SetFaultSchedule(sched)
		}
		if err := s.seed(w, fs, fname, wl); err != nil {
			return nil, fmt.Errorf("corrupt: seeding %s: %w", s.Name(), err)
		}
		fs.SetFaultSchedule(nil)
	}

	sink := w.EnableTracing(0)
	met := w.EnableMetrics()
	w.SetNodeMap(mpi.BlockNodeMap(nodeRanks))
	w.ResetClocks()
	fs.ResetTiming()

	var rf *mpi.RankFaultSchedule
	if s.Plane == CorruptWire {
		rf = s.wireSchedule()
		w.SetRankFaults(rf)
	} else if s.Write {
		fs.SetFaultSchedule(sched)
	}

	// attempt runs one collective transfer on every rank. collBuf sizes
	// the two-phase windows: the faulted phases use a sub-block buffer
	// (the interesting case — shuffle pieces smaller than a stripe
	// block), while the heal rewrite uses block-aligned windows, because
	// clearing a quarantine demands a window that repaves the whole
	// block — exactly what a journal-replay repair writer does.
	attempt := func(write bool, collBuf int64) ([]error, []bool) {
		errs := make([]error, wl.Ranks)
		mism := make([]bool, wl.Ranks)
		w.Run(func(p *mpi.Proc) {
			f, err := mpiio.Open(p, fs, fname, mpiio.Info{
				Collective:  s.collective(),
				CollBufSize: collBuf,
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
			if write {
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
		return errs, mism
	}

	finish := func() *CorruptOutcome {
		m := met.Merged()
		injected := int64(0)
		if rf != nil {
			injected += rf.Injected()
		}
		if sched != nil {
			injected += sched.Injected()
		}
		return &CorruptOutcome{
			Scenario:     s,
			Injected:     injected,
			WireMismatch: m.Counter(metrics.CIntegWireMismatch),
			WireRepaired: m.Counter(metrics.CIntegWireRepaired),
			AtRest:       fs.IntegrityStats(),
			Elapsed:      w.MaxClock(),
			Trace:        sink,
			Metrics:      met,
			Stats:        stats.Merge(w.Recorders()...),
		}
	}

	// Phase 1: the faulted transfer. Write scenarios follow with a
	// verifying collective read-back (the phase where at-rest damage is
	// detected); read scenarios detect inside the faulted read itself.
	phase := "transfer"
	errs, mism := attempt(s.Write, 1024)
	if s.Write && allNil(errs) {
		phase = "readback"
		errs, mism = attempt(false, 1024)
	}
	out := finish()

	// Invariant 1: agreement — all ranks succeed or all abort with the
	// same class wrapping ErrCollectiveAbort.
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	if failed != 0 && failed != wl.Ranks {
		return out, fmt.Errorf("%s agreement violated: %d of %d ranks errored: %v",
			phase, failed, wl.Ranks, errs)
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

	// Invariant 2: the injection fired and was detected — silent
	// corruption with the checksummed datapath on is the one forbidden
	// outcome.
	if out.Injected == 0 {
		return out, fmt.Errorf("corruption schedule never fired")
	}
	if s.Plane == CorruptWire && out.WireMismatch == 0 {
		return out, fmt.Errorf("wire checksum never tripped across %d injections", out.Injected)
	}
	if atRest && out.AtRest.Mismatches == 0 {
		return out, fmt.Errorf("at-rest checksum never tripped across %d injections", out.Injected)
	}

	if s.Repairable {
		// Invariant 3a: everything repaired inline — the collective
		// completed and the data is byte-identical to the fault-free
		// reference.
		if out.Class != mpiio.ClassOK {
			return out, fmt.Errorf("repairable corruption aborted with class %s (rank 0: %v)",
				mpiio.ClassName(out.Class), errs[0])
		}
		if s.Plane == CorruptWire && out.WireRepaired == 0 {
			return out, fmt.Errorf("no wire repair recorded")
		}
		if atRest {
			if out.AtRest.Repairs == 0 {
				return out, fmt.Errorf("no at-rest repair recorded")
			}
			if out.AtRest.Backlog != 0 {
				return out, fmt.Errorf("repairable run left %d blocks quarantined", out.AtRest.Backlog)
			}
		}
		return out, s.verifyData(fs, fname, wl, mism)
	}

	// Invariant 3b: the repair budget is exhausted — the phase where
	// detection happens must abort uniformly with the integrity class,
	// and at-rest damage must stay flagged (quarantined), never silently
	// served.
	if out.Class != mpiio.ClassIntegrity {
		return out, fmt.Errorf("unrepairable corruption agreed class %s, want integrity (rank 0: %v)",
			mpiio.ClassName(out.Class), errs[0])
	}
	if atRest && out.AtRest.Backlog == 0 {
		return out, fmt.Errorf("unrepairable at-rest damage left no quarantine backlog")
	}

	// Invariant 4: recoverability — with the fault plane cleared, a full
	// rewrite through the normal datapath (the journal-replay repair in
	// miniature) heals the quarantine and the file converges to the
	// reference.
	w.SetRankFaults(nil)
	fs.SetFaultSchedule(nil)
	errs, _ = attempt(true, cfg.PageSize)
	for r, err := range errs {
		if err != nil {
			return out, fmt.Errorf("rank %d failed on the clean heal rewrite: %v", r, err)
		}
	}
	errs, mism = attempt(false, cfg.PageSize)
	for r, err := range errs {
		if err != nil {
			return out, fmt.Errorf("rank %d failed reading back the healed file: %v", r, err)
		}
	}
	st := fs.IntegrityStats()
	if st.Backlog != 0 {
		return out, fmt.Errorf("heal rewrite left %d blocks quarantined", st.Backlog)
	}
	out.Healed = true
	out.AtRest.Backlog = 0
	return out, s.verifyData(fs, fname, wl, mism)
}

// seed writes the reference file through the trusted independent path.
func (s CorruptScenario) seed(w *mpi.World, fs *pfs.FileSystem, fname string, wl hpio.Pattern) error {
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
			return err
		}
	}
	return nil
}

// verifyData checks byte-identity with the fault-free reference: the file
// image (write scenarios and heals) or the per-rank read-back buffers.
func (s CorruptScenario) verifyData(fs *pfs.FileSystem, fname string, wl hpio.Pattern, mism []bool) error {
	for r, bad := range mism {
		if bad {
			return fmt.Errorf("rank %d: read-back bytes diverge from the reference", r)
		}
	}
	img := fs.Snapshot(fname, wl.FileSize())
	ref := wl.Reference()
	for i := range ref {
		if img[i] != ref[i] {
			return fmt.Errorf("file byte %d = %d, want %d (corrupted byte reached the survivor file)",
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

// CorruptMatrix enumerates the corruption grid: all three engines, both
// directions, both planes, repairable and unrepairable budgets — plus torn
// writes and the pre-aggregation variants riding the two-level exchange.
func CorruptMatrix() []CorruptScenario {
	var ms []CorruptScenario
	i := int64(0)
	add := func(engine string, write bool, plane CorruptPlane, repairable, pre bool) {
		i++
		ms = append(ms, CorruptScenario{
			Engine: engine, Write: write, Plane: plane,
			Repairable: repairable, Preagg: pre, Seed: 9000 + i,
		})
	}
	for _, e := range []string{"core-nb", "core-a2a", "twophase"} {
		for _, write := range []bool{true, false} {
			for _, plane := range []CorruptPlane{CorruptWire, CorruptAtRest} {
				add(e, write, plane, true, false)
				add(e, write, plane, false, false)
			}
		}
		add(e, true, CorruptTorn, true, false)
	}
	// Pre-aggregation: the leader gather, merge, and scatter must carry
	// the checksums too.
	for _, e := range []string{"core-nb", "core-a2a", "twophase"} {
		add(e, true, CorruptWire, true, true)
		add(e, false, CorruptWire, true, true)
		add(e, true, CorruptAtRest, true, true)
	}
	return ms
}

// CorruptQuick is the short-mode subset: one scenario per (plane, budget)
// combination.
func CorruptQuick() []CorruptScenario {
	seen := map[string]bool{}
	var qs []CorruptScenario
	for _, s := range CorruptMatrix() {
		key := string(s.Plane) + fmt.Sprint(s.Repairable)
		if !seen[key] {
			seen[key] = true
			qs = append(qs, s)
		}
	}
	return qs
}

// ParseCorruptSpec parses "plane[:abort][:pre]" (e.g. "wire", "atrest:abort",
// "torn", "wire:abort:pre") into a scenario for the given engine and
// direction.
func ParseCorruptSpec(engine string, write bool, spec string, seed int64) (CorruptScenario, error) {
	s := CorruptScenario{Engine: engine, Write: write, Repairable: true, Seed: seed}
	parts := strings.Split(spec, ":")
	switch CorruptPlane(parts[0]) {
	case CorruptWire, CorruptAtRest, CorruptTorn:
		s.Plane = CorruptPlane(parts[0])
	default:
		return s, fmt.Errorf("unknown corruption plane %q (want %s, %s, or %s)",
			parts[0], CorruptWire, CorruptAtRest, CorruptTorn)
	}
	for _, p := range parts[1:] {
		switch p {
		case "abort":
			s.Repairable = false
		case "repair":
			s.Repairable = true
		case "pre":
			s.Preagg = true
		default:
			return s, fmt.Errorf("unknown corruption modifier %q (want abort, repair, or pre)", p)
		}
	}
	return s, nil
}

// CorruptSoak runs the corruption scenarios, logging one line each via
// logf. Failing scenarios export their Chrome trace into traceDir (when
// non-empty); aborting or failing scenarios additionally dump the flight
// recorder; every scenario writes its ranked differential report against a
// fault-free baseline of the same engine configuration. It returns the
// number of invariant violations.
func CorruptSoak(scenarios []CorruptScenario, traceDir string, logf func(format string, args ...any)) int {
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
			logf("%-44s %s", s.Name(), status)
			continue
		}
		logf("%-44s class=%-9s inj=%-4d wire=%d/%d rest=%d/%d backlog=%-3d t=%8.3fms  %s",
			s.Name(), mpiio.ClassName(out.Class), out.Injected,
			out.WireRepaired, out.WireMismatch,
			out.AtRest.Repairs, out.AtRest.Mismatches, out.AtRest.Backlog,
			float64(out.Elapsed)*1e3, status)
		if traceDir == "" {
			continue
		}
		if err != nil && out.Trace != nil {
			path := traceDir + "/" + s.Name() + ".trace.json"
			if werr := out.Trace.WriteChromeTraceFile(path); werr == nil {
				logf("  trace written to %s", path)
			}
		}
		if (err != nil || out.Class != mpiio.ClassOK) && out.Metrics != nil {
			path := traceDir + "/" + s.Name() + ".flight.json"
			if werr := writeFlightFile(out.Metrics, path); werr == nil {
				logf("  flight recorder written to %s", path)
			}
		}
		if out.Metrics != nil {
			base := Scenario{Engine: s.Engine, Write: s.Write, Method: mpiio.DataSieve, Seed: 1, Preagg: s.Preagg}
			path := traceDir + "/" + s.Name() + ".report.txt"
			if werr := writeReportFile(bl.source(base), out.Metrics, s.Name(), path); werr == nil {
				logf("  differential report written to %s", path)
			}
		}
	}
	return failures
}
