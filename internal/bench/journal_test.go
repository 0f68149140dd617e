package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"fifer/internal/apps"
	"fifer/internal/core"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "journal.jsonl")
}

func okResult(job Job, cycles uint64, attempts int) JobResult {
	return JobResult{Job: job, Outcome: apps.Outcome{Cycles: cycles, Verified: true}, Attempts: attempts}
}

// TestJournalRoundTrip writes ok and failed records, resumes, and checks
// both replay with their outcome/class intact.
func TestJournalRoundTrip(t *testing.T) {
	path := journalPath(t)
	opt := Options{Scale: 0, Seed: 1, Apps: []string{"BFS"}}
	j, err := CreateJournal(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	good := Job{App: "BFS", Input: "Rn", Kind: apps.FiferPipe}
	bad := Job{App: "BFS", Input: "Rd", Kind: apps.StaticPipe}
	j.record("fig13", 0, okResult(good, 12345, 2))
	j.record("fig13", 1, JobResult{Job: bad, Err: fmt.Errorf("sim: %w", core.ErrDeadlock), Attempts: 1})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := ResumeJournal(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Replayed() != 2 {
		t.Fatalf("Replayed() = %d, want 2", r.Replayed())
	}
	res, ok := r.replayResult("fig13", 0, good)
	if !ok || res.Err != nil {
		t.Fatalf("ok record did not replay: %+v %v", res, ok)
	}
	if !res.Replayed || res.Attempts != 2 || res.Outcome.Cycles != 12345 || !res.Outcome.Verified {
		t.Fatalf("replayed result mangled: %+v", res)
	}
	res, ok = r.replayResult("fig13", 1, bad)
	if !ok || res.Err == nil {
		t.Fatalf("failed record did not replay as failure: %+v %v", res, ok)
	}
	if got := ErrorClass(res.Err); got != ClassDeadlock {
		t.Fatalf("replayed class = %q, want %q", got, ClassDeadlock)
	}
	// Another sweep's index 0 is a different key entirely.
	if _, ok := r.replayResult("fig16", 0, good); ok {
		t.Fatal("record leaked across sweep labels")
	}
}

// TestJournalNonDurableRescheduled checks canceled/timed-out records do not
// replay: the interrupted jobs run again on resume.
func TestJournalNonDurableRescheduled(t *testing.T) {
	path := journalPath(t)
	opt := Options{}
	j, err := CreateJournal(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	job := Job{App: "BFS", Input: "Rn", Kind: apps.FiferPipe}
	j.record("fig13", 0, JobResult{Job: job, Err: fmt.Errorf("stop: %w", core.ErrCanceled)})
	j.record("fig13", 1, JobResult{Job: job, Err: fmt.Errorf("late: %w (%v): %w", ErrJobTimeout, 0, core.ErrCanceled), Attempts: 1})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := ResumeJournal(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Replayed() != 0 {
		t.Fatalf("Replayed() = %d, want 0 (canceled and timeout are not durable)", r.Replayed())
	}
	for idx := 0; idx < 2; idx++ {
		if _, ok := r.replayResult("fig13", idx, job); ok {
			t.Fatalf("non-durable record %d replayed", idx)
		}
	}
}

// TestJournalLastRecordWins checks a re-run job's newer record supersedes
// the older one at the same (sweep, index).
func TestJournalLastRecordWins(t *testing.T) {
	path := journalPath(t)
	opt := Options{}
	job := Job{App: "BFS", Input: "Rn", Kind: apps.FiferPipe}
	j, err := CreateJournal(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	j.record("fig13", 0, JobResult{Job: job, Err: fmt.Errorf("sim: %w", core.ErrDeadlock), Attempts: 1})
	j.record("fig13", 0, okResult(job, 777, 2))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := ResumeJournal(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	res, ok := r.replayResult("fig13", 0, job)
	if !ok || res.Err != nil || res.Outcome.Cycles != 777 {
		t.Fatalf("newest record did not win: %+v %v %v", res, ok, res.Err)
	}
}

// TestJournalTornTailTolerated appends a torn (newline-less) fragment —
// the signature of a crash mid-write — and checks resume discards it,
// keeps the intact records, and appends cleanly afterwards.
func TestJournalTornTailTolerated(t *testing.T) {
	path := journalPath(t)
	opt := Options{}
	job := Job{App: "BFS", Input: "Rn", Kind: apps.FiferPipe}
	j, err := CreateJournal(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	j.record("fig13", 0, okResult(job, 1, 1))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"sweep":"fig13","index":1,"app":"BF`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := ResumeJournal(path, opt)
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if r.Replayed() != 1 {
		t.Fatalf("Replayed() = %d, want 1 (the intact record)", r.Replayed())
	}
	// The torn bytes must be gone so the next append yields a valid file.
	r.record("fig13", 1, okResult(job, 2, 1))
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := ResumeJournal(path, opt)
	if err != nil {
		t.Fatalf("journal invalid after append past torn tail: %v", err)
	}
	defer r2.Close()
	if r2.Replayed() != 2 {
		t.Fatalf("Replayed() = %d after append, want 2", r2.Replayed())
	}
}

// TestJournalCorruptionHardError flips bytes inside a complete record and
// checks resume refuses the journal instead of replaying silently wrong
// results.
func TestJournalCorruptionHardError(t *testing.T) {
	path := journalPath(t)
	opt := Options{}
	j, err := CreateJournal(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	j.record("fig13", 0, okResult(Job{App: "BFS", Input: "Rn", Kind: apps.FiferPipe}, 42, 1))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Same length, still valid JSON, but not the bytes the CRC covers.
	tampered := strings.Replace(string(data), `"app":"BFS"`, `"app":"XFS"`, 1)
	if tampered == string(data) {
		t.Fatal("tamper target not found")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeJournal(path, opt); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupted record accepted (err = %v), want checksum error", err)
	}
}

// TestJournalHeaderMismatch checks a journal refuses to resume under
// options that would compute different results.
func TestJournalHeaderMismatch(t *testing.T) {
	path := journalPath(t)
	j, err := CreateJournal(path, Options{Scale: 0, Seed: 1, Apps: []string{"BFS"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	for name, opt := range map[string]Options{
		"different seed":  {Scale: 0, Seed: 2, Apps: []string{"BFS"}},
		"different scale": {Scale: 1, Seed: 1, Apps: []string{"BFS"}},
		"different apps":  {Scale: 0, Seed: 1, Apps: []string{"CC"}},
	} {
		if _, err := ResumeJournal(path, opt); err == nil {
			t.Errorf("%s: resumed against a mismatched journal", name)
		}
	}
	// Identical options (including scheduling knobs that may differ) resume.
	if r, err := ResumeJournal(path, Options{Scale: 0, Seed: 1, Apps: []string{"BFS"}, Jobs: 99, JobTimeout: time.Minute}); err != nil {
		t.Errorf("matching options refused: %v", err)
	} else {
		r.Close()
	}
}

// TestJournalFingerprintMismatch checks a durable record whose job identity
// disagrees with the job now scheduled at its index surfaces as an explicit
// journal-mismatch error, never a misattributed outcome.
func TestJournalFingerprintMismatch(t *testing.T) {
	path := journalPath(t)
	opt := Options{}
	j, err := CreateJournal(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	j.record("fig13", 0, okResult(Job{App: "BFS", Input: "Rn", Kind: apps.FiferPipe}, 42, 1))
	// Jobs that differ only in their variant (Fig. 16's queue sizes) are
	// different jobs too.
	j.record("fig16", 0, okResult(Job{App: "BFS", Input: "Rn", Kind: apps.FiferPipe, Variant: "qmem=1x no-dbuf"}, 42, 1))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := ResumeJournal(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, c := range []struct {
		sweep string
		job   Job
	}{
		{"fig13", Job{App: "BFS", Input: "Rd", Kind: apps.FiferPipe}},
		{"fig16", Job{App: "BFS", Input: "Rn", Kind: apps.FiferPipe, Variant: "qmem=2x"}},
	} {
		res, ok := r.replayResult(c.sweep, 0, c.job)
		if !ok || res.Err == nil {
			t.Fatalf("%s: mismatched record silently ignored: %+v %v", c.sweep, res, ok)
		}
		if got := ErrorClass(res.Err); got != ClassMismatch {
			t.Fatalf("%s: class = %q, want %q", c.sweep, got, ClassMismatch)
		}
		if res.Outcome.Cycles != 0 {
			t.Fatalf("%s: mismatched replay leaked the journaled outcome", c.sweep)
		}
	}
}

// TestJournalNoHeader checks empty and header-torn files fail loudly.
func TestJournalNoHeader(t *testing.T) {
	for name, content := range map[string]string{
		"empty file":  "",
		"torn header": `{"journal":"fifer-ben`,
	} {
		path := journalPath(t)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ResumeJournal(path, Options{}); err == nil {
			t.Errorf("%s: resumed without an intact header", name)
		}
	}
	if _, err := ResumeJournal(filepath.Join(t.TempDir(), "absent.jsonl"), Options{}); err == nil {
		t.Error("resumed a journal that does not exist")
	}
}

// TestJournalNilReceiver checks a nil *Journal (journaling off) is inert on
// every method the Runner calls unconditionally.
func TestJournalNilReceiver(t *testing.T) {
	var j *Journal
	j.record("fig13", 0, okResult(Job{App: "BFS"}, 1, 1))
	if _, ok := j.replayResult("fig13", 0, Job{App: "BFS"}); ok {
		t.Fatal("nil journal replayed a result")
	}
	if j.Replayed() != 0 || j.Err() != nil || j.Close() != nil {
		t.Fatal("nil journal is not inert")
	}
	if !errors.Is(j.Err(), nil) {
		t.Fatal("nil journal reports an error")
	}
}

// journalFig13 runs Fig13 under opt with a fresh journal at path and returns
// the journal file's bytes.
func journalFig13(t *testing.T, path string, opt Options) []byte {
	t.Helper()
	j, err := CreateJournal(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Journal = j
	if _, err := Fig13(opt); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("journal file is empty")
	}
	return data
}

// canonicalJournal splits a journal file into its header line and its
// record lines ordered by (sweep, index). The Runner appends records in
// completion order, which a crash-safe journal needs but which depends on
// scheduling whenever Jobs > 1; the stable sort keeps several records of
// one job (a failure and the re-run superseding it) in their written order.
func canonicalJournal(t *testing.T, data []byte) (header string, records []string) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	type key struct {
		Sweep string `json:"sweep"`
		Index int    `json:"index"`
	}
	keys := make(map[string]key, len(lines)-1)
	for _, line := range lines[1:] {
		var k key
		if err := json.Unmarshal([]byte(line), &k); err != nil {
			t.Fatalf("journal record %q: %v", line, err)
		}
		keys[line] = k
	}
	records = lines[1:]
	sort.SliceStable(records, func(i, j int) bool {
		a, b := keys[records[i]], keys[records[j]]
		if a.Sweep != b.Sweep {
			return a.Sweep < b.Sweep
		}
		return a.Index < b.Index
	})
	return lines[0], records
}

// checkSameJournal requires two journals of one sweep to hold the same
// header and the same records, each byte for byte (CRCs included), in any
// completion order.
func checkSameJournal(t *testing.T, gotName string, got []byte, wantName string, want []byte) {
	t.Helper()
	gh, gr := canonicalJournal(t, got)
	wh, wr := canonicalJournal(t, want)
	if gh != wh {
		t.Errorf("journal headers differ:\n%s: %s\n%s: %s", gotName, gh, wantName, wh)
	}
	if len(gr) != len(wr) {
		t.Fatalf("%s journal has %d records, %s has %d", gotName, len(gr), wantName, len(wr))
	}
	for i := range gr {
		if gr[i] != wr[i] {
			t.Errorf("journal record %d differs:\n%s: %s\n%s: %s", i, gotName, gr[i], wantName, wr[i])
		}
	}
}

func TestCheckSameJournalIgnoresCompletionOrder(t *testing.T) {
	header := `{"journal":"fifer-bench","version":1,"crc":1}` + "\n"
	a := header + `{"sweep":"fig13","index":1,"crc":2}` + "\n" + `{"sweep":"fig13","index":0,"crc":3}` + "\n"
	b := header + `{"sweep":"fig13","index":0,"crc":3}` + "\n" + `{"sweep":"fig13","index":1,"crc":2}` + "\n"
	checkSameJournal(t, "a", []byte(a), "b", []byte(b))
	_, records := canonicalJournal(t, []byte(a))
	if !strings.Contains(records[0], `"index":0`) {
		t.Fatalf("records not ordered by index: %v", records)
	}
}
