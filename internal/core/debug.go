package core

import (
	"fmt"
	"strings"
)

// dumpExcerptLines bounds the state-dump excerpt embedded in error messages
// (deadlock reports, MaxCycles exhaustion, recovered corruption) so a
// 16-PE system's failure stays readable in a test log or bench report.
const dumpExcerptLines = 24

// truncateLines keeps the first n lines of s, annotating elision.
func truncateLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) <= n {
		return strings.Join(lines, "\n")
	}
	return strings.Join(lines[:n], "\n") + fmt.Sprintf("\n... (%d more lines elided)", len(lines)-n)
}

// BlockedSummary renders a compact diagnosis of why the system is not
// making progress: the wait-for edges (who is stuck on what) followed by a
// truncated state dump. It is embedded in the ErrMaxCycles and corruption
// error messages so even a budget-exhaustion failure is actionable without
// re-running the simulation.
func (s *System) BlockedSummary(maxLines int) string {
	var b strings.Builder
	edges := s.WaitFor()
	shown := len(edges)
	if shown > maxLines/2 {
		shown = maxLines / 2
	}
	for _, e := range edges[:shown] {
		fmt.Fprintf(&b, "wait-for: %s\n", e)
	}
	if elided := len(edges) - shown; elided > 0 {
		fmt.Fprintf(&b, "... (%d more wait-for edges elided)\n", elided)
	}
	b.WriteString(truncateLines(s.Dump(), maxLines-shown))
	return b.String()
}

// Dump renders the live state of every PE — active stage, queue occupancies,
// DRM state — for deadlock diagnosis.
func (s *System) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle %d\n", s.Cycle)
	for _, pe := range s.PEs {
		act := "-"
		if st := pe.ActiveStage(); st != nil {
			act = st.Name
		}
		fmt.Fprintf(&b, "pe%d active=%s reconfigUntil=%d stallUntil=%d pending=%d stack=%+v\n",
			pe.ID, act, pe.reconfigUntil, pe.stallUntil, pe.pending, pe.Stack)
		for _, st := range pe.stages {
			fmt.Fprintf(&b, "  stage %s work=%d ready=%v outBlocked=%v", st.Name, st.InputWork(), st.Ready(), st.OutputsBlocked())
			if st.StateWork != nil {
				fmt.Fprintf(&b, " stateWork=%d", st.StateWork())
			}
			if g := st.Gate; g != nil {
				fmt.Fprintf(&b, " gate=%d/%d", g.Held(), g.Limit)
			}
			fmt.Fprintln(&b)
		}
		for _, q := range pe.QMem.Queues() {
			if q.Len() > 0 {
				fmt.Fprintf(&b, "  queue %s len=%d/%d\n", q.Name(), q.Len(), q.Cap())
			}
		}
		for _, d := range pe.DRMs {
			if d.Busy() {
				fmt.Fprintf(&b, "  drm %s mode=%v busy in=%d inflight=%d\n", d.Name(), d.Mode(), d.In().Len(), d.inflight.Len())
			}
		}
	}
	return b.String()
}
