package core

import (
	"fmt"
	"strings"
)

// dumpExcerptLines bounds the state-dump excerpt a StopError carries, so a
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
