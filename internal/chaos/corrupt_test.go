package chaos

import (
	"os"
	"testing"

	"flexio/internal/datatype"
	"flexio/internal/hpio"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
)

// TestCorruptMatrix is the cross-engine integrity property test: every
// injected flip — wire and at-rest, all three engines, read and write,
// with and without pre-aggregation — is either repaired byte-identically
// or ends in a uniform ErrDataIntegrity abort, gated on the survivor
// file's bytes. Silent divergence anywhere fails the scenario.
func TestCorruptMatrix(t *testing.T) {
	scenarios := CorruptMatrix()
	if testing.Short() {
		scenarios = CorruptQuick()
	}
	traceDir := os.Getenv("CHAOS_TRACE_DIR")
	for _, s := range scenarios {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			t.Parallel()
			out, err := s.Run()
			if err != nil {
				if traceDir != "" && out != nil {
					if out.Trace != nil {
						path := traceDir + "/" + s.Name() + ".trace.json"
						if werr := out.Trace.WriteChromeTraceFile(path); werr == nil {
							t.Logf("chrome trace written to %s", path)
						}
					}
					if out.Metrics != nil {
						path := traceDir + "/" + s.Name() + ".flight.json"
						if werr := writeFlightFile(out.Metrics, path); werr == nil {
							t.Logf("flight recorder written to %s", path)
						}
					}
				}
				t.Fatal(err)
			}
		})
	}
}

// TestCorruptAbortHeals pins the full quarantine lifecycle on one
// scenario: unrepairable at-rest damage aborts with the integrity class,
// stays quarantined (never silently served), and a clean full rewrite
// through the normal datapath heals the backlog to zero.
func TestCorruptAbortHeals(t *testing.T) {
	s := CorruptScenario{Engine: "core-nb", Write: true, Plane: CorruptAtRest, Seed: 77}
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

// TestParseCorruptSpec covers the CLI flag syntax.
func TestParseCorruptSpec(t *testing.T) {
	s, err := ParseCorruptSpec("core-nb", true, "atrest:abort:pre", 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Plane != CorruptAtRest || s.Repairable || !s.Preagg {
		t.Fatalf("parsed %+v", s)
	}
	if _, err := ParseCorruptSpec("core-nb", true, "gamma-ray", 5); err == nil {
		t.Fatal("bad plane accepted")
	}
	if _, err := ParseCorruptSpec("core-nb", true, "wire:often", 5); err == nil {
		t.Fatal("bad modifier accepted")
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
			wl := hpio.Pattern{Ranks: 4, RegionSize: 64, RegionCount: 32, Spacing: 64}
			cfg := sim.DefaultConfig()
			w := mpi.NewWorld(wl.Ranks, cfg)
			fs := pfs.NewFileSystem(cfg)
			w.EnableIntegrity(1)
			fs.EnableIntegrity(1, 0)
			s := CorruptScenario{Engine: engine}
			if err := s.seed(w, fs, "one.dat", wl); err != nil {
				t.Fatal(err)
			}
			// Rank 1's request to aggregator 0 is the first payload on
			// that link; every delivery attempt of it arrives corrupted.
			w.SetRankFaults(mpi.NewRankFaultSchedule(1).Corrupt(1, 0, 1, integrityRepeatUnrepairable, 1))
			errs := make([]error, wl.Ranks)
			w.Run(func(p *mpi.Proc) {
				f, err := mpiio.Open(p, fs, "one.dat", mpiio.Info{Collective: s.collective(), CollBufSize: 512})
				if err != nil {
					errs[p.Rank()] = err
					return
				}
				ft, disp := wl.Filetype(p.Rank())
				if err := f.SetView(disp, datatype.Bytes(1), ft); err != nil {
					errs[p.Rank()] = err
					return
				}
				mt, n := wl.Memtype()
				errs[p.Rank()] = f.ReadAll(make([]byte, n), mt, wl.RegionCount)
			})
			for r, err := range errs {
				if c := mpiio.ErrorClass(err); c != mpiio.ClassIntegrity {
					t.Errorf("rank %d: class %s, want integrity (%v)", r, mpiio.ClassName(c), err)
				}
			}
		})
	}
}
