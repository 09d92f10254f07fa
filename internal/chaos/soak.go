package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"flexio/internal/analyze"
	"flexio/internal/critpath"
	"flexio/internal/mpi"
	"flexio/internal/report"
	"flexio/internal/trace"
)

// Soak runs the scenarios, logging one Outcome.Line each via logf. When
// dir is non-empty every scenario leaves the same five artifacts there, named after the scenario: the Chrome trace
// (.trace.json), the critical-path report (.critpath.txt), the canonical,
// byte-deterministic flight dump (.flight.json — see
// TestFlightDumpDeterministic), the comm matrix under the chaos node map
// (.comm.json), and the ranked differential report of the run against the
// same scenario with every fault field cleared (.report.txt). It returns
// the number of invariant violations.
func Soak(scenarios []Scenario, dir string, logf func(format string, args ...any)) int {
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
		logf("%s  %s", out.Line(), status)
		if dir == "" {
			continue
		}
		for _, a := range out.artifacts(bl.source(s)) {
			if werr := writeArtifact(filepath.Join(dir, s.Name()+a.ext), a.render); werr != nil {
				logf("  %s export failed: %v", a.ext, werr)
			}
		}
	}
	return failures
}

// artifact is one postmortem file: its name suffix and its renderer.
type artifact struct {
	ext    string
	render func(io.Writer) error
}

// artifacts lists the outcome's five postmortem files; baseline is the
// fault-free Source the differential report diffs against.
func (o *Outcome) artifacts(baseline *report.Source) []artifact {
	name := o.Scenario.Name()
	return []artifact{
		{".trace.json", o.Trace.WriteChromeTrace},
		{".critpath.txt", critPathArtifact(o.Trace)},
		{".flight.json", o.Metrics.Dump(false).WriteJSON},
		{".comm.json", func(w io.Writer) error { return o.Comm.WriteJSON(w, mpi.BlockNodeMap(nodeRanks)) }},
		{".report.txt", func(w io.Writer) error {
			if baseline == nil {
				return errors.New("no fault-free baseline")
			}
			cur, err := report.FromSet(name, o.Metrics)
			if err != nil {
				return err
			}
			return diffArtifact(baseline, cur)(w)
		}},
	}
}

// writeArtifact renders an artifact in memory and writes it to path, so a
// failed render leaves no partial file behind.
func writeArtifact(path string, render func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := render(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// critPathArtifact renders the critical-path report computed from a trace.
func critPathArtifact(sink *trace.Sink) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, critpath.Analyze(sink).Format())
		return err
	}
}

// diffArtifact renders the ranked differential report between two Sources,
// followed by the analyzer's findings on it.
func diffArtifact(old, cur *report.Source) func(io.Writer) error {
	return func(w io.Writer) error {
		rep := report.Diff(old, cur)
		if _, err := fmt.Fprintln(w, rep.Format()); err != nil {
			return err
		}
		if fs := analyze.ReportFindings(rep); len(fs) > 0 {
			_, err := io.WriteString(w, analyze.FormatReport(fs))
			return err
		}
		return nil
	}
}

// baselines caches fault-free report Sources by clean scenario name, so a
// soak over a full matrix runs each clean configuration once and diffs
// every faulted scenario of that configuration against it.
type baselines map[string]*report.Source

// source returns the fault-free Source for the scenario, running it on
// first use. A failed baseline run caches nil so it is not retried for
// every scenario that shares the configuration.
func (b baselines) source(s Scenario) *report.Source {
	clean := s.clean()
	key := clean.Name()
	if src, ok := b[key]; ok {
		return src
	}
	var src *report.Source
	if out, err := clean.Run(); err == nil && out != nil {
		if fromSet, ferr := report.FromSet(key, out.Metrics); ferr == nil {
			src = fromSet
		}
	}
	b[key] = src
	return src
}
