package chaos

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"flexio/internal/core"
	"flexio/internal/datatype"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
	"flexio/internal/stats"
)

// out0Dump parses a canonical dump back for structural assertions.
func out0Dump(t *testing.T, b []byte) *metrics.Dump {
	t.Helper()
	var d metrics.Dump
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatalf("flight dump does not parse: %v", err)
	}
	return &d
}

// The three fault planes, as row filters over Matrix().
func storagePlane(s Scenario) bool { return s.Rank == "" && s.Plane == "" }
func rankPlane(s Scenario) bool    { return s.Rank != "" }
func corruptPlane(s Scenario) bool { return s.Plane != "" }

// runPlane runs one plane's rows of Matrix() (of Quick() in short mode) as
// parallel subtests and requires every invariant to hold. On violation the
// scenario's artifacts are exported to $CHAOS_TRACE_DIR when set, so CI can
// attach them.
func runPlane(t *testing.T, plane func(Scenario) bool) {
	scenarios := Matrix()
	if testing.Short() {
		scenarios = Quick()
	}
	traceDir := os.Getenv("CHAOS_TRACE_DIR")
	for _, s := range scenarios {
		if !plane(s) {
			continue
		}
		t.Run(s.Name(), func(t *testing.T) {
			t.Parallel()
			out, err := s.Run()
			if err != nil {
				if traceDir != "" && out != nil {
					for _, a := range out.artifacts(nil) {
						path := filepath.Join(traceDir, s.Name()+a.ext)
						if werr := writeArtifact(path, a.render); werr == nil {
							t.Logf("artifact written to %s", path)
						}
					}
				}
				t.Fatal(err)
			}
		})
	}
}

// TestChaosMatrix runs the storage-fault rows (the short-mode subset
// covers one scenario per fault pattern) and asserts every robustness
// invariant.
func TestChaosMatrix(t *testing.T) { runPlane(t, storagePlane) }

// TestRankChaosMatrix runs the rank-failure rows and asserts the failover
// invariants: collective agreement on the unresponsive class, victim
// detection, no hang, journal-driven replay, and byte-identical recovery.
func TestRankChaosMatrix(t *testing.T) { runPlane(t, rankPlane) }

// TestCorruptMatrix is the cross-engine integrity property test: every
// injected flip — wire and at-rest, all three engines, read and write,
// with and without pre-aggregation — is either repaired byte-identically
// or ends in a uniform ErrDataIntegrity abort, gated on the survivor
// file's bytes. Silent divergence anywhere fails the scenario.
func TestCorruptMatrix(t *testing.T) { runPlane(t, corruptPlane) }

// TestMatrixShape pins the plane sizes and requires unique names: names
// are subtest IDs and artifact file names, so a collision would silently
// overwrite another scenario's artifacts.
func TestMatrixShape(t *testing.T) {
	counts := map[string]int{}
	names := map[string]bool{}
	for _, s := range Matrix() {
		switch {
		case rankPlane(s):
			counts["rank"]++
		case corruptPlane(s):
			counts["corrupt"]++
		default:
			counts["storage"]++
		}
		if names[s.Name()] {
			t.Errorf("duplicate scenario name %s", s.Name())
		}
		names[s.Name()] = true
	}
	if counts["storage"] != 70 || counts["rank"] != 27 || counts["corrupt"] != 36 {
		t.Errorf("plane sizes %v, want storage 70, rank 27, corrupt 36", counts)
	}
}

// TestChaosDeterministic reruns a retry-heavy scenario and checks the fault
// decisions and recovery work reproduce exactly. (Virtual elapsed time is
// not compared: lock-revoke arrival order can wobble it within a round.)
func TestChaosDeterministic(t *testing.T) {
	s := Scenario{Engine: "core-nb", Write: true, Fault: FaultTransient, Seed: 7}
	a, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Class != b.Class || a.Injected != b.Injected {
		t.Errorf("outcome not deterministic: class %d/%d injected %d/%d",
			a.Class, b.Class, a.Injected, b.Injected)
	}
	for _, c := range []string{stats.CRetries, stats.CPartialResumes, stats.CGiveups, stats.CFaultsInjected} {
		if x, y := a.Stats.Counter(c), b.Stats.Counter(c); x != y {
			t.Errorf("counter %q not deterministic: %d vs %d", c, x, y)
		}
	}
}

// TestFlightDumpDeterministic: for a fixed chaos seed, the canonical
// flight-recorder dump — the postmortem artifact Soak writes — must be
// byte-identical across runs. This is what makes a CI flight.json artifact
// directly diffable against a local reproduction.
func TestFlightDumpDeterministic(t *testing.T) {
	// A scenario that aborts: hard error confined to round 1, so the dump
	// carries both round traffic and the abort context.
	s := Scenario{Engine: "core-nb", Write: true, Method: mpiio.DataSieve, Fault: FaultRound1, Seed: 42}
	dumps := make([][]byte, 2)
	for i := range dumps {
		out, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if out.Class == mpiio.ClassOK {
			t.Fatal("scenario unexpectedly succeeded; dump would carry no abort")
		}
		var buf bytes.Buffer
		if err := out.Metrics.Dump(false).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		dumps[i] = buf.Bytes()
	}
	if !bytes.Equal(dumps[0], dumps[1]) {
		t.Errorf("canonical flight dumps differ between identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			dumps[0], dumps[1])
	}
	d := out0Dump(t, dumps[0])
	if d.Abort == nil {
		t.Error("dump carries no abort context")
	}

	// The Soak file path produces the same bytes.
	dir := t.TempDir()
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "x.flight.json")
	if err := writeArtifact(path, out.Metrics.Dump(false).WriteJSON); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, dumps[0]) {
		t.Error("Soak flight file differs from in-memory canonical dump")
	}
}

// TestRankChaosJournalPaths pins the two recovery modes side by side: an
// aggregator victim moves realms (fresh journal epoch, full replay) while
// a pure-client victim keeps them (same epoch, committed rounds skipped).
func TestRankChaosJournalPaths(t *testing.T) {
	agg := Scenario{Engine: "core-nb", Write: true, Rank: RankCrashMid, Victim: 1, Seed: 21}
	out, err := agg.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.PreRounds == 0 {
		t.Error("aggregator victim: nothing journalled before the crash")
	}
	if out.Skipped != 0 {
		t.Errorf("aggregator victim moved realms; resume must replay everything, skipped %d", out.Skipped)
	}
	if out.Replayed == 0 {
		t.Error("aggregator victim: resume replayed nothing")
	}

	client := Scenario{Engine: "core-nb", Write: true, Rank: RankCrashMid, Victim: 3, CbNodes: 2, Seed: 22}
	out, err = client.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Skipped == 0 {
		t.Errorf("client victim kept realms; resume must skip the %d committed rounds", out.PreRounds)
	}
}

// TestRankChaosDeterministic: for a fixed seed, the whole
// fault-detect-revive-resume cycle must reproduce exactly — including the
// canonical flight dump, byte for byte, which is what lets a CI rank-chaos
// artifact be diffed against a local reproduction.
func TestRankChaosDeterministic(t *testing.T) {
	for _, s := range []Scenario{
		{Engine: "core-nb", Write: true, Rank: RankCrashMid, Victim: 1, Seed: 31},
		{Engine: "core-a2a", Write: true, Rank: RankStraggler, Victim: 2, Seed: 32},
		{Engine: "twophase", Write: true, Rank: RankCrashMid, Victim: 3, CbNodes: 2, Seed: 33},
		{Engine: "core-nb", Write: true, Rank: RankDropStorm, Victim: 1, Seed: 34},
	} {
		t.Run(s.Name(), func(t *testing.T) {
			t.Parallel()
			dumps := make([][]byte, 2)
			var first *Outcome
			for i := range dumps {
				out, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					first = out
				} else {
					if out.Class != first.Class || out.Injected != first.Injected ||
						out.Replayed != first.Replayed || out.Skipped != first.Skipped ||
						out.DeadlineTrips != first.DeadlineTrips || out.Redelivered != first.Redelivered {
						t.Errorf("outcome not deterministic:\nrun1 %+v\nrun2 %+v", first, out)
					}
				}
				var buf bytes.Buffer
				if err := out.Metrics.Dump(false).WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				dumps[i] = buf.Bytes()
			}
			if !bytes.Equal(dumps[0], dumps[1]) {
				t.Errorf("canonical flight dumps differ between identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
					dumps[0], dumps[1])
			}
			// Resumed scenarios must surface the failover in the canonical
			// dump (it is deterministic, so it belongs there).
			if s.Rank != RankDropStorm {
				d := out0Dump(t, dumps[0])
				if d.Failover == nil {
					t.Fatal("canonical dump carries no failover event")
				}
				if len(d.Failover.DeadRanks) == 0 {
					t.Error("failover event names no dead ranks")
				}
			}
		})
	}
}

// TestRankSoakQuick drives the soak entry point end to end over the quick
// subset of all three fault planes, checking it reports zero violations
// and leaves all five artifacts for every scenario (the interesting runs
// are often the ones that recovered).
func TestRankSoakQuick(t *testing.T) {
	dir := t.TempDir()
	scenarios := Quick()
	planes := map[string]int{}
	for _, s := range scenarios {
		switch {
		case rankPlane(s):
			planes["rank"]++
		case corruptPlane(s):
			planes["corrupt"]++
		default:
			planes["storage"]++
		}
	}
	if len(planes) != 3 {
		t.Fatalf("Quick() misses a fault plane: %v", planes)
	}
	if n := Soak(scenarios, dir, t.Logf); n != 0 {
		t.Fatalf("%d chaos violations", n)
	}
	for _, s := range scenarios {
		for _, suffix := range []string{".trace.json", ".flight.json", ".critpath.txt", ".comm.json", ".report.txt"} {
			if _, err := os.Stat(dir + "/" + s.Name() + suffix); err != nil {
				t.Errorf("missing artifact: %v", err)
			}
		}
	}
}

// TestRankChaosComposesStorageFaults pins the combined fault plane: the
// brownout slows storage (visible in the stats) while the crash kills the
// rank, and recovery still converges byte-identically.
func TestRankChaosComposesStorageFaults(t *testing.T) {
	s := Scenario{Engine: "core-nb", Write: true, Rank: RankCrashMid, Fault: FaultBrownout, Victim: 1, Seed: 41}
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Class != mpiio.ClassUnresponsive {
		t.Errorf("abort class %s, want unresponsive", mpiio.ClassName(out.Class))
	}
	if out.Stats.Counter(stats.CBrownoutServes) == 0 {
		t.Error("brownout never served a slowed request")
	}
}

// TestCorruptAbortHeals pins the full quarantine lifecycle on one
// scenario: unrepairable at-rest damage aborts with the integrity class,
// stays quarantined (never silently served), and a clean full rewrite
// through the normal datapath heals the backlog to zero.
func TestCorruptAbortHeals(t *testing.T) {
	s := Scenario{Engine: "core-nb", Write: true, Plane: CorruptAtRest, Seed: 77}
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Class != mpiio.ClassIntegrity {
		t.Fatalf("class = %s, want integrity", mpiio.ClassName(out.Class))
	}
	if !out.Healed {
		t.Fatal("clean rewrite did not heal the quarantine")
	}
	if out.AtRest.Unrepaired == 0 {
		t.Fatal("no unrepaired read recorded before the heal")
	}
}

// TestCorruptOneRequestReadAborts: a single request list lost to
// corruption on one link reads as an empty access at that aggregator, so
// its client would wait forever for read data that never comes. Every
// engine must instead agree on a ClassIntegrity abort before the rounds.
// (The soak matrix corrupts every link at once, which empties every
// access and never reaches the rounds.)
func TestCorruptOneRequestReadAborts(t *testing.T) {
	for _, engine := range []string{"core-nb", "core-a2a", "twophase"} {
		t.Run(engine, func(t *testing.T) {
			cfg := sim.DefaultConfig()
			w := mpi.NewWorld(tile.Ranks, cfg)
			fs := pfs.NewFileSystem(cfg)
			w.EnableIntegrity(1)
			fs.EnableIntegrity(1, 0)
			if err := seedFile(w, fs, "one.dat"); err != nil {
				t.Fatal(err)
			}
			coll := core.New(Scenario{Engine: engine}.options())
			// Rank 1's request to aggregator 0 is the first payload on
			// that link; every delivery attempt of it arrives corrupted.
			w.SetRankFaults(mpi.NewRankFaultSchedule(1).Corrupt(1, 0, 1, integrityRepeatUnrepairable, 1))
			errs := make([]error, tile.Ranks)
			w.Run(func(p *mpi.Proc) {
				f, err := mpiio.Open(p, fs, "one.dat", mpiio.Info{Collective: coll, CollBufSize: 512})
				if err != nil {
					errs[p.Rank()] = err
					return
				}
				ft, disp := tile.Filetype(p.Rank())
				if err := f.SetView(disp, datatype.Bytes(1), ft); err != nil {
					errs[p.Rank()] = err
					return
				}
				mt, n := tile.Memtype()
				errs[p.Rank()] = f.ReadAll(make([]byte, n), mt, tile.RegionCount)
			})
			for r, err := range errs {
				if c := mpiio.ErrorClass(err); c != mpiio.ClassIntegrity {
					t.Errorf("rank %d: class %s, want integrity (%v)", r, mpiio.ClassName(c), err)
				}
			}
		})
	}
}
