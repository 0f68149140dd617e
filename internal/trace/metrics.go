package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Metrics export. The JSONL form is one self-describing object per sample —
// the format fifertrace and ad-hoc tooling (jq, pandas) consume;
// bench.TraceSink.WriteMetricsCSV writes the same rows as CSV for
// spreadsheet import. Both are deterministic: rows are written in emission
// order, which the core fixes (per-PE, in cycle order).

// JobMetrics is one simulation's metrics samples within a JSONL file.
type JobMetrics struct {
	Name string // job key, e.g. "BFS/Hu fifer-16pe"
	Rows []MetricsRow
}

// metricsLine is the wire form of one JSONL metrics sample.
type metricsLine struct {
	Job         string `json:"job"`
	Cycle       uint64 `json:"cycle"`
	PE          int    `json:"pe"`
	Issued      uint64 `json:"issued"`
	Stall       uint64 `json:"stall"`
	Queue       uint64 `json:"queue"`
	Reconfig    uint64 `json:"reconfig"`
	Idle        uint64 `json:"idle"`
	QueueTokens int    `json:"qtokens"`
	DRMInflight int    `json:"drm_inflight"`
}

func toLine(job string, r MetricsRow) metricsLine {
	return metricsLine{Job: job, Cycle: r.Cycle, PE: r.PE,
		Issued: r.Issued, Stall: r.Stall, Queue: r.Queue,
		Reconfig: r.Reconfig, Idle: r.Idle,
		QueueTokens: r.QueueTokens, DRMInflight: r.DRMInflight}
}

func (l metricsLine) row() MetricsRow {
	return MetricsRow{Cycle: l.Cycle, PE: l.PE,
		Issued: l.Issued, Stall: l.Stall, Queue: l.Queue,
		Reconfig: l.Reconfig, Idle: l.Idle,
		QueueTokens: l.QueueTokens, DRMInflight: l.DRMInflight}
}

// WriteMetricsJSONL appends job's samples to w, one JSON object per line.
func WriteMetricsJSONL(w io.Writer, job string, rows []MetricsRow) error {
	bw := bufio.NewWriter(w)
	for _, r := range rows {
		b, err := json.Marshal(toLine(job, r))
		if err != nil {
			return err
		}
		bw.Write(b)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// ReadMetricsJSONL parses a JSONL metrics file back into per-job rows, in
// first-appearance order.
func ReadMetricsJSONL(r io.Reader) ([]JobMetrics, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var order []string
	rows := map[string][]MetricsRow{}
	n := 0
	for sc.Scan() {
		n++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var l metricsLine
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			return nil, fmt.Errorf("trace: metrics line %d: %w", n, err)
		}
		if _, ok := rows[l.Job]; !ok {
			order = append(order, l.Job)
		}
		rows[l.Job] = append(rows[l.Job], l.row())
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading metrics: %w", err)
	}
	out := make([]JobMetrics, 0, len(order))
	for _, job := range order {
		out = append(out, JobMetrics{Name: job, Rows: rows[job]})
	}
	return out, nil
}
