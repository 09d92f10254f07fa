// Package twophase_test is the regression suite of the ROMIO-style
// two-phase baseline (Thakur, Gropp, Lusk — "Data sieving and collective
// I/O in ROMIO"). The baseline is no longer a separate engine: it is the
// core engine's ROMIO configuration (core.ROMIO — flattened-access
// requests pre-split per aggregator, even contiguous file domains, data
// sieving inside the collective buffer), and every test here runs that
// configuration. The directory holds no code of its own.
package twophase_test

import (
	"fmt"
	"testing"

	"flexio/internal/colltest"
	"flexio/internal/core"
	"flexio/internal/mpiio"
	"flexio/internal/sim"
	"flexio/internal/stats"
)

func baseWorkload() colltest.Workload {
	return colltest.Workload{
		Ranks:       8,
		RegionSize:  64,
		RegionCount: 40,
		Spacing:     32,
		Disp:        100,
	}
}

func TestWriteAll(t *testing.T) {
	wl := baseWorkload()
	res, err := colltest.RunWrite(sim.DefaultConfig(), wl, mpiio.Info{Collective: core.New(core.ROMIO())})
	if err != nil {
		t.Fatal(err)
	}
	if err := colltest.VerifyImage(wl, res.Image); err != nil {
		t.Fatal(err)
	}
}

func TestReadAll(t *testing.T) {
	wl := baseWorkload()
	if _, err := colltest.RunReadBack(sim.DefaultConfig(), wl, mpiio.Info{Collective: core.New(core.ROMIO())}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAllAggregatorCounts(t *testing.T) {
	wl := baseWorkload()
	for _, naggs := range []int{1, 2, 5, 8} {
		t.Run(fmt.Sprintf("naggs=%d", naggs), func(t *testing.T) {
			res, err := colltest.RunWrite(sim.DefaultConfig(), wl,
				mpiio.Info{Collective: core.New(core.ROMIO()), CbNodes: naggs})
			if err != nil {
				t.Fatal(err)
			}
			if err := colltest.VerifyImage(wl, res.Image); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestWriteAllManyRounds(t *testing.T) {
	wl := baseWorkload()
	res, err := colltest.RunWrite(sim.DefaultConfig(), wl,
		mpiio.Info{Collective: core.New(core.ROMIO()), CollBufSize: 192})
	if err != nil {
		t.Fatal(err)
	}
	if err := colltest.VerifyImage(wl, res.Image); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAllEnumeratedFiletype(t *testing.T) {
	wl := baseWorkload()
	wl.Enumerate = true
	res, err := colltest.RunWrite(sim.DefaultConfig(), wl, mpiio.Info{Collective: core.New(core.ROMIO())})
	if err != nil {
		t.Fatal(err)
	}
	if err := colltest.VerifyImage(wl, res.Image); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAllNoncontigMemory(t *testing.T) {
	wl := baseWorkload()
	wl.MemNoncontig = true
	wl.MemGap = 24
	res, err := colltest.RunWrite(sim.DefaultConfig(), wl, mpiio.Info{Collective: core.New(core.ROMIO())})
	if err != nil {
		t.Fatal(err)
	}
	if err := colltest.VerifyImage(wl, res.Image); err != nil {
		t.Fatal(err)
	}
}

func TestSingleRank(t *testing.T) {
	wl := colltest.Workload{Ranks: 1, RegionSize: 100, RegionCount: 17, Spacing: 28}
	res, err := colltest.RunWrite(sim.DefaultConfig(), wl, mpiio.Info{Collective: core.New(core.ROMIO())})
	if err != nil {
		t.Fatal(err)
	}
	if err := colltest.VerifyImage(wl, res.Image); err != nil {
		t.Fatal(err)
	}
}

// TestOldAndNewProduceIdenticalFiles is the central cross-implementation
// check: both collective engines must write byte-identical files.
func TestOldAndNewProduceIdenticalFiles(t *testing.T) {
	wl := colltest.Workload{Ranks: 6, RegionSize: 48, RegionCount: 57, Spacing: 80, Disp: 13}
	cfg := sim.DefaultConfig()
	old, err := colltest.RunWrite(cfg, wl, mpiio.Info{Collective: core.New(core.ROMIO()), CollBufSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	niu, err := colltest.RunWrite(cfg, wl, mpiio.Info{
		Collective: core.New(core.Options{Validate: true}), CollBufSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(old.Image) != len(niu.Image) {
		t.Fatalf("image sizes differ: %d vs %d", len(old.Image), len(niu.Image))
	}
	for i := range old.Image {
		if old.Image[i] != niu.Image[i] {
			t.Fatalf("images differ at byte %d: old=%d new=%d", i, old.Image[i], niu.Image[i])
		}
	}
	if err := colltest.VerifyImage(wl, old.Image); err != nil {
		t.Fatal(err)
	}
}

// TestRequestVolumeOldVsNew verifies the paper's §5.3 tradeoff: the old
// implementation exchanges O(M) request bytes, the new one O(D·A); with a
// succinct filetype and many regions the new code's request traffic must
// be orders of magnitude smaller.
func TestRequestVolumeOldVsNew(t *testing.T) {
	wl := colltest.Workload{Ranks: 4, RegionSize: 8, RegionCount: 4096, Spacing: 120}
	cfg := sim.DefaultConfig()
	old, err := colltest.RunWrite(cfg, wl, mpiio.Info{Collective: core.New(core.ROMIO())})
	if err != nil {
		t.Fatal(err)
	}
	niu, err := colltest.RunWrite(cfg, wl, mpiio.Info{Collective: core.New(core.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	oldReq := stats.Merge(old.World.Recorders()...).Counter(stats.CReqBytes)
	newReq := stats.Merge(niu.World.Recorders()...).Counter(stats.CReqBytes)
	if newReq*20 > oldReq {
		t.Errorf("request bytes old=%d new=%d; expected >20x reduction", oldReq, newReq)
	}
	// And the computation tradeoff goes the other way.
	oldPairs := stats.Merge(old.World.Recorders()...).Counter(stats.CPairsProcessed)
	newPairs := stats.Merge(niu.World.Recorders()...).Counter(stats.CPairsProcessed)
	if newPairs <= oldPairs {
		t.Logf("note: new pairs %d <= old pairs %d (succinct skipping very effective)", newPairs, oldPairs)
	}
}

// TestIntegratedSieveSingleCopy: the old implementation sieves inside the
// collective buffer; the new one (sieve mode) stages the useful bytes
// through a second, separate sieve buffer. The copy phase accounting must
// reflect that.
func TestIntegratedSieveSingleCopy(t *testing.T) {
	wl := baseWorkload()
	cfg := sim.DefaultConfig()
	old, err := colltest.RunWrite(cfg, wl, mpiio.Info{Collective: core.New(core.ROMIO())})
	if err != nil {
		t.Fatal(err)
	}
	niu, err := colltest.RunWrite(cfg, wl, mpiio.Info{
		Collective: core.New(core.Options{Method: mpiio.DataSieve})})
	if err != nil {
		t.Fatal(err)
	}
	oldCopy := stats.Merge(old.World.Recorders()...).Time(stats.PCopy)
	newCopy := stats.Merge(niu.World.Recorders()...).Time(stats.PCopy)
	if !(oldCopy < newCopy) {
		t.Errorf("double buffering not visible: old copy %v, new copy %v", oldCopy, newCopy)
	}
}

// TestName: the baseline's name says which exchange and buffer access
// method it runs, so flight dumps and CLI output identify it.
func TestName(t *testing.T) {
	const want = "flexio(even,nonblocking,access,integrated)"
	if got := core.New(core.ROMIO()).Name(); got != want {
		t.Fatalf("name = %q, want %q", got, want)
	}
}
