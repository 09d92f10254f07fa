package realm

import (
	"reflect"
	"testing"
)

func nonEmptySlots(realms []Realm) []int {
	var out []int
	for i, r := range realms {
		if !r.Empty() {
			out = append(out, i)
		}
	}
	return out
}

// TestSpreadRanksRoundRobin: with ranks packed node-major, the chosen
// aggregators must visit distinct nodes before doubling up on any.
func TestSpreadRanksRoundRobin(t *testing.T) {
	nodeOf := func(r int) int { return r / 2 } // 4 nodes of 2 ranks
	cases := []struct {
		active int
		want   []int
	}{
		{1, []int{0}},
		{3, []int{0, 2, 4}},       // one per node, first nodes
		{4, []int{0, 2, 4, 6}},    // one per node, all nodes
		{5, []int{0, 1, 2, 4, 6}}, // second pass doubles up node 0
		{8, []int{0, 1, 2, 3, 4, 5, 6, 7}},
	}
	for _, c := range cases {
		got := SpreadRanks(c.active, 8, nodeOf)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("SpreadRanks(%d) = %v, want %v", c.active, got, c.want)
		}
	}
}

// TestSpreadPlacement: the packed layout puts both aggregators on node 0;
// the spread must place them on distinct nodes and still cover the region.
func TestSpreadPlacement(t *testing.T) {
	nodeOf := func(r int) int { return r / 4 } // 2 nodes of 4 ranks
	ctx := Context{NAggs: 8, Start: 0, End: 4096, NodeOf: nodeOf}

	realms, err := Spread{Base: Even{}, Active: 2}.Assign(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := Coverage(realms, 0, 4096); err != nil {
		t.Fatal(err)
	}
	slots := nonEmptySlots(realms)
	if !reflect.DeepEqual(slots, []int{0, 4}) {
		t.Fatalf("spread chose slots %v, want [0 4]", slots)
	}
	nodes := map[int]bool{}
	for _, s := range slots {
		nodes[nodeOf(s)] = true
	}
	if len(nodes) != 2 {
		t.Fatalf("aggregators packed onto %d node(s), want 2 distinct", len(nodes))
	}
}

// TestSpreadDisabledDelegates: Active covering every slot (or zero) must
// leave the base assignment untouched.
func TestSpreadDisabledDelegates(t *testing.T) {
	ctx := Context{NAggs: 4, Start: 0, End: 1024}
	base, err := Even{}.Assign(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, active := range []int{0, 4, 9} {
		got, err := Spread{Base: Even{}, Active: active}.Assign(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("Active=%d should delegate to base unchanged", active)
		}
	}
}

// TestSpreadUnderFailover: Failover{Base: Spread} drops the dead slot
// before the spread picks, so the chosen aggregators are live ranks on
// distinct nodes.
func TestSpreadUnderFailover(t *testing.T) {
	nodeOf := func(r int) int { return r / 4 } // 2 nodes of 4 ranks
	ctx := Context{NAggs: 8, Start: 0, End: 4096, NodeOf: nodeOf}
	fo := Failover{Base: Spread{Base: Even{}, Active: 2}, Dead: []int{0}}
	realms, err := fo.Assign(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := Coverage(realms, 0, 4096); err != nil {
		t.Fatal(err)
	}
	slots := nonEmptySlots(realms)
	if !reflect.DeepEqual(slots, []int{1, 4}) {
		t.Fatalf("failover spread chose slots %v, want [1 4]", slots)
	}
}

// TestSpreadWithNodeLocal: the spread hands NodeLocal true rank placements
// through AggRanks, so each node's bytes land on an aggregator of that
// node — the combination the two-level exchange wants when cb_nodes < P.
func TestSpreadWithNodeLocal(t *testing.T) {
	nodeOf := func(r int) int { return r / 2 } // 2 nodes of 2 ranks
	ctx := Context{
		NAggs: 4, Start: 0, End: 400, NodeOf: nodeOf,
		RankSegs: nodeLocalCtx(4).RankSegs,
	}
	realms, err := Spread{Base: NodeLocal{}, Active: 2}.Assign(ctx)
	if err != nil {
		t.Fatal(err)
	}
	slots := nonEmptySlots(realms)
	if !reflect.DeepEqual(slots, []int{0, 2}) {
		t.Fatalf("chose slots %v, want [0 2]", slots)
	}
	// Node 0's ranks access [0,200): slot 0 (node 0) must own those bytes;
	// node 1's [200,400) must sit on slot 2 (node 1).
	for off := int64(0); off < 400; off += 50 {
		slot := owner(t, realms, off)
		if want := int(off/200) * 2; slot != want {
			t.Errorf("byte %d owned by slot %d, want %d", off, slot, want)
		}
	}
}
