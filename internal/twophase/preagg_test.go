package twophase_test

import (
	"bytes"
	"fmt"
	"testing"

	"flexio/internal/colltest"
	"flexio/internal/core"
	"flexio/internal/metrics"
	"flexio/internal/mpiio"
	"flexio/internal/sim"
)

// romioPreagg is the baseline with node-local pre-aggregation on.
func romioPreagg() mpiio.Collective {
	o := core.ROMIO()
	o.Preagg = true
	return core.New(o)
}

// preaggImage runs one collective write and returns the verified image.
func preaggImage(t *testing.T, wl colltest.Workload, info mpiio.Info) (colltest.Result, []byte) {
	t.Helper()
	res, err := colltest.RunWrite(sim.DefaultConfig(), wl, info)
	if err != nil {
		t.Fatal(err)
	}
	if err := colltest.VerifyImage(wl, res.Image); err != nil {
		t.Fatal(err)
	}
	return res, res.Image
}

// TestPreaggWriteByteIdentical: with pre-aggregation on, the baseline's
// written file is byte-identical to the per-rank exchange, across node
// sizes (including ones that do not divide the world).
func TestPreaggWriteByteIdentical(t *testing.T) {
	for _, nodeRanks := range []int{2, 3, 4, 8} {
		t.Run(fmt.Sprintf("nodes%d", nodeRanks), func(t *testing.T) {
			wl := baseWorkload()
			wl.NodeRanks = nodeRanks
			_, plain := preaggImage(t, wl, mpiio.Info{Collective: core.New(core.ROMIO())})
			_, merged := preaggImage(t, wl, mpiio.Info{Collective: romioPreagg()})
			if !bytes.Equal(plain, merged) {
				t.Fatalf("pre-aggregated image differs from per-rank image")
			}
		})
	}
}

// TestPreaggReadMatrix: collective reads with pre-aggregation return the
// exact bytes an independent write produced (the harness checks every
// rank's buffer, so the leader scatter is fully exercised).
func TestPreaggReadMatrix(t *testing.T) {
	for _, nodeRanks := range []int{2, 4} {
		t.Run(fmt.Sprintf("nodes%d", nodeRanks), func(t *testing.T) {
			wl := baseWorkload()
			wl.NodeRanks = nodeRanks
			info := mpiio.Info{Collective: romioPreagg()}
			if _, err := colltest.RunReadBack(sim.DefaultConfig(), wl, info); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPreaggVariants exercises the wrinkles that interact with the merge:
// noncontiguous memory, many small rounds, and a capped aggregator count.
func TestPreaggVariants(t *testing.T) {
	cases := []struct {
		name string
		tune func(*colltest.Workload, *mpiio.Info)
	}{
		{"mem-noncontig", func(wl *colltest.Workload, in *mpiio.Info) {
			wl.MemNoncontig = true
			wl.MemGap = 48
		}},
		{"many-rounds", func(wl *colltest.Workload, in *mpiio.Info) {
			in.CollBufSize = 192
		}},
		{"few-aggs", func(wl *colltest.Workload, in *mpiio.Info) {
			in.CbNodes = 3
		}},
		{"no-node-map", func(wl *colltest.Workload, in *mpiio.Info) {
			wl.NodeRanks = 0 // identity map: every rank leads itself
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wl := baseWorkload()
			wl.NodeRanks = 4
			plainInfo := mpiio.Info{Collective: core.New(core.ROMIO())}
			preInfo := mpiio.Info{Collective: romioPreagg()}
			tc.tune(&wl, &plainInfo)
			wl2 := baseWorkload()
			wl2.NodeRanks = 4
			tc.tune(&wl2, &preInfo)
			_, plain := preaggImage(t, wl, plainInfo)
			_, merged := preaggImage(t, wl2, preInfo)
			if !bytes.Equal(plain, merged) {
				t.Fatalf("pre-aggregated image differs from per-rank image")
			}
		})
	}
}

// TestPreaggShuffleAccounting checks the comm-matrix node split still
// equals the shuffle counters when pre-aggregation is on: the preagg
// forwarding happens outside any round, so it must not leak into shuffle
// accounting on either side.
func TestPreaggShuffleAccounting(t *testing.T) {
	wl := baseWorkload()
	wl.NodeRanks = 4
	info := mpiio.Info{Collective: romioPreagg()}
	res, err := colltest.RunWrite(sim.DefaultConfig(), wl, info)
	if err != nil {
		t.Fatal(err)
	}
	inter, intra := res.Comm.NodeSplit(res.World.NodeMap())
	m := res.Metrics.Merged()
	if got := m.Counter(metrics.CShuffleInterNodeBytes); got != inter {
		t.Fatalf("internode shuffle: matrix %d, counters %d", inter, got)
	}
	if got := m.Counter(metrics.CShuffleIntraNodeBytes); got != intra {
		t.Fatalf("intranode shuffle: matrix %d, counters %d", intra, got)
	}
	if inter+intra == 0 {
		t.Fatalf("no shuffle bytes recorded")
	}
}

// TestPreaggLeaderCarriesRoundData: with pre-aggregation, only node
// leaders send payload in the write rounds — every member row of the comm
// matrix carries request traffic but no outgoing shuffle bytes. (Members
// still serve as aggregators, so their incoming cells stay busy.)
func TestPreaggLeaderCarriesRoundData(t *testing.T) {
	wl := baseWorkload()
	wl.NodeRanks = 4
	info := mpiio.Info{Collective: romioPreagg()}
	res, err := colltest.RunWrite(sim.DefaultConfig(), wl, info)
	if err != nil {
		t.Fatal(err)
	}
	nodeOf := res.World.NodeMap()
	for r := 0; r < wl.Ranks; r++ {
		leader := r
		for c := 0; c < wl.Ranks; c++ {
			if nodeOf(c) == nodeOf(r) && c < leader {
				leader = c
			}
		}
		if leader == r {
			continue
		}
		if out := res.Comm.ShuffleRowBytes(r); out != 0 {
			t.Fatalf("member rank %d sent %d shuffle bytes; leaders should carry the rounds", r, out)
		}
	}
}
