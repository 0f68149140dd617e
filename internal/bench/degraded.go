package bench

import (
	"fmt"
	"strings"
)

// Degraded-mode rendering: a partial sweep (canceled, or with failed jobs)
// still produces every table. Cells whose simulations are missing print an
// annotated placeholder carrying the error class instead of aborting table
// generation, and aggregates computed from a strict subset of their inputs
// are marked so a reader never mistakes a partial gmean for a complete one.

// degradedCell renders one table cell: the value when its inputs are
// complete, "value*" when the aggregate lost some inputs to errClass, and
// a "!class" placeholder when nothing usable remains.
func degradedCell(v float64, errClass string) string {
	switch {
	case errClass == "":
		return fmt.Sprintf("%.2f", v)
	case v == 0:
		return "!" + errClass
	default:
		return fmt.Sprintf("%.2f*", v)
	}
}

// speedupText renders a headline speedup, followed by "at where" when
// where is given, or "n/a" when no cell survived to compute it (the
// aggregate is then 0).
func speedupText(v float64, where ...string) string {
	if v == 0 {
		return "n/a"
	}
	return strings.Join(append([]string{fmt.Sprintf("%.2fx", v)}, where...), " at ")
}
