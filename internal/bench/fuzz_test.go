package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"fifer/internal/apps"
)

// fuzzJournalBytes builds a realistic journal — header plus a few sealed
// records, including an error record and a later record superseding it — to
// seed the corpus with inputs that exercise the verified-replay path, not
// just the reject-everything path.
func fuzzJournalBytes(tb testing.TB, opt Options) []byte {
	tb.Helper()
	dir := tb.TempDir()
	path := filepath.Join(dir, "seed.jsonl")
	j, err := CreateJournal(path, opt)
	if err != nil {
		tb.Fatal(err)
	}
	ok := JobResult{
		Job:      Job{App: "BFS", Input: "Hu", Kind: apps.FiferPipe},
		Outcome:  apps.Outcome{Kind: apps.FiferPipe, Cycles: 12345, Verified: true},
		Attempts: 1,
	}
	j.record("fig13", 0, ok)
	j.record("fig13", 1, JobResult{
		Job:      Job{App: "CC", Input: "Hu", Kind: apps.StaticPipe},
		Err:      ErrCycleBudget,
		Attempts: 2,
	})
	j.record("fig13", 1, ok) // re-run superseding the failure
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzResumeJournal feeds arbitrary bytes to the crash-recovery path. The
// contract under test: ResumeJournal either returns a working journal or a
// classified error — it must never panic, whatever is on disk. The seed
// corpus covers the crash signatures the format is designed around: a valid
// journal, truncations at every interesting boundary, a torn (newline-less)
// final line, flipped bits inside a sealed record, and assorted non-journal
// junk.
func FuzzResumeJournal(f *testing.F) {
	opt := Options{Scale: 0, Seed: 1}
	valid := fuzzJournalBytes(f, opt)

	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("\n"))
	f.Add([]byte("not a journal at all"))
	f.Add([]byte(`{"journal":"fifer-bench","version":99,"crc":0}` + "\n"))
	// Truncations: mid-header, exactly after the header, mid-record.
	f.Add(valid[:len(valid)/4])
	if i := bytes.IndexByte(valid, '\n'); i >= 0 {
		f.Add(valid[:i+1])
		f.Add(valid[:i+1+(len(valid)-i-1)/2])
	}
	// Torn final line: chop the trailing newline plus a few bytes.
	f.Add(valid[:len(valid)-3])
	// Bit flips in the header and in a record body.
	for _, pos := range []int{10, len(valid) / 2, len(valid) - 10} {
		mut := append([]byte(nil), valid...)
		mut[pos] ^= 0x40
		f.Add(mut)
	}
	// A valid journal with trailing garbage (no final newline → torn).
	f.Add(append(append([]byte(nil), valid...), []byte(`{"sweep":"fig13","ind`)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := ResumeJournal(path, opt)
		if err != nil {
			return // classified rejection is a correct outcome
		}
		// A journal that resumed must be usable: replay lookups cannot
		// panic, appending works, and Close reports any latched error.
		for idx := 0; idx < 4; idx++ {
			j.replayResult("fig13", idx, Job{App: "BFS", Input: "Hu", Kind: apps.FiferPipe})
		}
		j.record("fig13", 9, JobResult{
			Job:      Job{App: "BFS", Input: "Hu", Kind: apps.FiferPipe},
			Outcome:  apps.Outcome{Kind: apps.FiferPipe, Cycles: 1},
			Attempts: 1,
		})
		if err := j.Close(); err != nil {
			t.Fatalf("journal resumed cleanly but Close failed: %v", err)
		}
		// The file we just appended to must itself resume: recovery output
		// is always recoverable input.
		j2, err := ResumeJournal(path, opt)
		if err != nil {
			t.Fatalf("journal written by recovery does not resume: %v", err)
		}
		j2.Close()
	})
}
