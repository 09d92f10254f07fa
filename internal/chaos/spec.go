package chaos

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"flexio/internal/mpiio"
)

// Spec tokens, one per fault pattern a one-line spec can name.
var (
	storageTokens = []Fault{FaultTransient, FaultPartial, FaultRound1, FaultBrownout,
		FaultStorm, FaultGiveup, FaultSieveHard}
	rankTokens  = []RankFault{RankCrashShuffle, RankCrashMid, RankStraggler, RankDropStorm}
	planeTokens = []CorruptPlane{CorruptWire, CorruptAtRest, CorruptTorn}
)

// ParseSpec parses a one-line chaos spec "token[:mod]..." into a scenario
// on the given engine (sieving with mpiio.DataSieve, writing unless told
// otherwise). The token names one fault pattern:
//
//   - a storage fault: transient, partial, hard-round1, brownout, storm,
//     giveup, sieve-hard;
//   - a rank fault: crash-before-shuffle, crash-mid-rounds, straggler,
//     drop-storm, crash-brownout (crash-mid-rounds plus a storage
//     brownout), crash-mid-read (crash-mid-rounds on a read);
//   - a corruption plane: wire, atrest, torn.
//
// The modifiers are:
//
//   - victim[:cbnodes] (rank faults): the target rank, in [0,4) on the
//     4-rank chaos tile (default 1), optionally followed by the aggregator
//     cap, in [0,4] (0 = every rank aggregates);
//   - read (storage faults but sieve-hard, and corruption planes):
//     inject on the read direction;
//   - abort or repair (corruption planes): exhaust the repair budget, or
//     keep it (the default);
//   - pre: node-local pre-aggregation.
//
// Examples: "crash-mid-rounds:3:2", "atrest:abort:pre", "partial:read".
// Unknown tokens, out-of-tile ranks, repeated or inapplicable modifiers
// and extra parts are errors, so a bad spec fails here instead of
// surfacing as an invariant violation of a run that never armed its fault.
func ParseSpec(engine, spec string, seed int64) (Scenario, error) {
	parts := strings.Split(spec, ":")
	tok := parts[0]
	s := Scenario{Engine: engine, Write: true, Method: mpiio.DataSieve, Seed: seed}
	switch {
	case slices.Contains(storageTokens, Fault(tok)):
		s.Fault = Fault(tok)
	case slices.Contains(rankTokens, RankFault(tok)):
		s.Rank, s.Victim = RankFault(tok), 1
	case tok == "crash-brownout":
		s.Rank, s.Victim, s.Fault = RankCrashMid, 1, FaultBrownout
	case tok == "crash-mid-read":
		s.Rank, s.Victim, s.Write = RankCrashMid, 1, false
	case slices.Contains(planeTokens, CorruptPlane(tok)):
		s.Plane, s.Repairable = CorruptPlane(tok), true
	default:
		return s, fmt.Errorf("chaos spec %q: unknown fault %q (want one of %v, %v, crash-brownout, crash-mid-read, or %v)",
			spec, tok, storageTokens, rankTokens, planeTokens)
	}

	seen := map[string]bool{}
	victimSet, afterVictim := false, false
	for _, p := range parts[1:] {
		wasVictim := afterVictim
		afterVictim = false
		if n, err := strconv.Atoi(p); err == nil {
			switch {
			case s.Rank == "":
				return s, fmt.Errorf("chaos spec %q: %s takes no victim or cbnodes (%q)", spec, tok, p)
			case !victimSet:
				if n < 0 || n >= tile.Ranks {
					return s, fmt.Errorf("chaos spec %q: victim %d outside the %d-rank tile [0,%d)", spec, n, tile.Ranks, tile.Ranks)
				}
				s.Victim, victimSet, afterVictim = n, true, true
			case wasVictim:
				if n < 0 || n > tile.Ranks {
					return s, fmt.Errorf("chaos spec %q: cbnodes %d outside [0,%d]", spec, n, tile.Ranks)
				}
				s.CbNodes = n
			default:
				return s, fmt.Errorf("chaos spec %q: extra part %q (want victim[:cbnodes] once, right after each other)", spec, p)
			}
			continue
		}
		if seen[p] {
			return s, fmt.Errorf("chaos spec %q: modifier %q given twice", spec, p)
		}
		seen[p] = true
		switch p {
		case "read":
			if s.Rank != "" || s.Fault == FaultSieveHard {
				return s, fmt.Errorf("chaos spec %q: %s does not apply to reads", spec, tok)
			}
			s.Write = false
		case "abort", "repair":
			if s.Plane == "" {
				return s, fmt.Errorf("chaos spec %q: %s takes no %s budget (corruption planes only)", spec, tok, p)
			}
			if seen["abort"] && seen["repair"] {
				return s, fmt.Errorf("chaos spec %q: abort and repair conflict", spec)
			}
			s.Repairable = p == "repair"
		case "pre":
			s.Preagg = true
		default:
			return s, fmt.Errorf("chaos spec %q: unknown modifier %q (want victim[:cbnodes], read, abort, repair, or pre)", spec, p)
		}
	}
	return s, nil
}
