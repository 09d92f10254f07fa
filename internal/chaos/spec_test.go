package chaos

import (
	"strconv"
	"strings"
	"testing"
)

// TestParseRankSpec pins the cmd-facing spec syntax for rank faults.
func TestParseRankSpec(t *testing.T) {
	s, err := ParseSpec("core-nb", "crash-mid-rounds:3:2", 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rank != RankCrashMid || s.Victim != 3 || s.CbNodes != 2 || s.Engine != "core-nb" {
		t.Fatalf("parsed %+v", s)
	}
	if _, err := ParseSpec("core-nb", "no-such-fault:1", 5); err == nil {
		t.Fatal("want error for unknown fault")
	}
	if _, err := ParseSpec("core-nb", "straggler:x", 5); err == nil {
		t.Fatal("want error for bad victim")
	}
	// A bad rank spec must fail here, not run and then blame the engine
	// for a fault that never armed: an out-of-tile victim reports "no
	// failed rank detected", a drop aimed at no rank "drop schedule never
	// fired".
	for _, spec := range []string{
		"crash-mid-rounds:9", "crash-mid-rounds:-1", "drop-storm:7", "straggler:4",
		"crash-mid-rounds:1:5", "crash-mid-rounds:1:-1", "crash-mid-rounds:1:2:3",
		"crash-mid-rounds:1:pre:2", "crash-mid-rounds::1", "crash-brownout:1:2:pre:x",
		"crash-mid-rounds:read", "crash-mid-read:read", "straggler:abort", "drop-storm:pre:pre",
	} {
		if s, err := ParseSpec("core-nb", spec, 5); err == nil {
			t.Errorf("ParseSpec(%q) accepted: %+v", spec, s)
		}
	}
}

// TestParseCorruptSpec covers the spec syntax for corruption planes.
func TestParseCorruptSpec(t *testing.T) {
	s, err := ParseSpec("core-nb", "atrest:abort:pre", 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Plane != CorruptAtRest || s.Repairable || !s.Preagg || !s.Write {
		t.Fatalf("parsed %+v", s)
	}
	if _, err := ParseSpec("core-nb", "gamma-ray", 5); err == nil {
		t.Fatal("bad plane accepted")
	}
	if _, err := ParseSpec("core-nb", "wire:often", 5); err == nil {
		t.Fatal("bad modifier accepted")
	}
	// Modifiers that do not apply to the token, repeats, conflicts, and
	// victims on non-rank tokens.
	for _, spec := range []string{
		"", "none", "wire:3", "transient:1", "sieve-hard:read", "transient:repair",
		"wire:abort:repair", "wire:abort:abort", "wire:read:read", "atrest:abort:",
	} {
		if s, err := ParseSpec("core-nb", spec, 5); err == nil {
			t.Errorf("ParseSpec(%q) accepted: %+v", spec, s)
		}
	}
	if s, err := ParseSpec("core-nb", "wire:read:abort", 5); err != nil || s.Write || s.Repairable {
		t.Errorf("wire:read:abort parsed to %+v, %v", s, err)
	}
}

// TestParseSpecNames: every matrix row's fault pattern round-trips through
// the grammar, so any soak failure replays from a one-line spec.
func TestParseSpecNames(t *testing.T) {
	for _, want := range Matrix() {
		if want.Degraded || want.Method != 0 {
			continue // engine options, not part of the fault spec
		}
		spec := want.pattern()
		switch {
		case want.Rank != "":
			spec = strings.Join([]string{spec, strconv.Itoa(want.Victim), strconv.Itoa(want.CbNodes)}, ":")
		case want.Plane != "":
			spec = strings.Replace(spec, "-", ":", 1)
		}
		if !want.Write && want.Rank == "" {
			spec += ":read"
		}
		if want.Preagg {
			spec += ":pre"
		}
		got, err := ParseSpec(want.Engine, spec, want.Seed)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		if got != want {
			t.Errorf("%s parsed to %s, want %s", spec, got.Name(), want.Name())
		}
	}
}

// FuzzParseSpec: the parser never panics on hostile input, and every spec
// it accepts yields a scenario that fits the 4-rank chaos tile. The corpus
// seeds one spec per token plus the documented CLI examples.
func FuzzParseSpec(f *testing.F) {
	for _, tok := range storageTokens {
		f.Add(string(tok))
	}
	for _, tok := range rankTokens {
		f.Add(string(tok))
	}
	for _, tok := range planeTokens {
		f.Add(string(tok))
	}
	for _, spec := range []string{
		"crash-brownout", "crash-mid-read", "crash-mid-rounds:1", "crash-mid-rounds:3:2",
		"straggler:2", "drop-storm:1", "crash-before-shuffle:0:pre", "wire:abort:pre",
		"atrest:abort", "atrest:read", "torn", "wire:read:abort", "partial:read", "sieve-hard",
		"crash-mid-rounds:9", "drop-storm:7", "crash-mid-rounds:1:2:3", "wire::",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSpec("core-nb", spec, 1)
		if err != nil {
			return
		}
		if s.Victim < 0 || s.Victim >= tile.Ranks || s.CbNodes < 0 || s.CbNodes > tile.Ranks {
			t.Fatalf("ParseSpec(%q) accepted an out-of-tile scenario: victim %d cbnodes %d", spec, s.Victim, s.CbNodes)
		}
		if s.Name() == "" {
			t.Fatalf("ParseSpec(%q) yields an unnamed scenario", spec)
		}
	})
}
