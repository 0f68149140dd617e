package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"fifer/internal/apps"
)

// The journal is an append-only JSONL file that makes a sweep crash-safe:
// every finished job — successful or not — is flushed as one self-checking
// record before the sweep moves on, so an interruption (SIGINT, OOM kill,
// power loss) loses at most the jobs that were in flight. ResumeJournal
// reads the records back, verifies them, and lets the Runner replay
// completed jobs instead of re-simulating them; because simulations are
// deterministic and outcomes round-trip JSON losslessly, a resumed sweep's
// tables are byte-identical to an uninterrupted run's.
//
// File layout: line 1 is a header binding the journal to its options
// (version, scale, seed, app subset); every further line is one Record.
// Each line carries a CRC32 of itself (computed with the CRC field zeroed),
// so torn writes and bit rot are detected rather than silently replayed. A
// truncated final line — the signature of a crash mid-write — is tolerated
// and discarded; a checksum mismatch on a complete line is a hard error.

// journalVersion is bumped whenever the record encoding changes
// incompatibly; ResumeJournal refuses journals from other versions.
const journalVersion = 1

// journalHeader is the first line of every journal.
type journalHeader struct {
	Journal string   `json:"journal"` // format tag, always "fifer-bench"
	Version int      `json:"version"`
	Scale   int      `json:"scale"`
	Seed    uint64   `json:"seed"`
	Apps    []string `json:"apps,omitempty"`
	CRC     uint32   `json:"crc"`
}

// Record is one journaled job completion. Sweep+Index key the record to a
// position in a driver's job list; App/Input/Kind/Merged fingerprint the
// job itself so a resumed run with a different job list fails loudly
// instead of attributing results to the wrong simulation.
type Record struct {
	Sweep   string        `json:"sweep"`
	Index   int           `json:"index"`
	App     string        `json:"app"`
	Input   string        `json:"input"`
	Kind    int           `json:"kind"`
	Merged  bool          `json:"merged,omitempty"`
	Variant string        `json:"variant,omitempty"`
	Attempt int           `json:"attempt"`
	Class   string        `json:"class"`
	Err     string        `json:"err,omitempty"`
	Outcome *apps.Outcome `json:"outcome,omitempty"`
	CRC     uint32        `json:"crc"`
}

type journalKey struct {
	sweep string
	index int
}

// Journal is the crash-safe result log a Runner writes to (and, after
// ResumeJournal, replays from). All methods are safe for concurrent use and
// safe on a nil receiver (a nil *Journal disables journaling), so the
// Runner calls unconditionally. Write failures do not poison results:
// the first one is latched and reported by Err/Close, and the sweep
// continues un-journaled.
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	err      error
	replay   map[journalKey]Record
	replayed int // durable records loaded by ResumeJournal
}

// CreateJournal starts a fresh journal at path (truncating any existing
// file) and writes the header that binds it to opt's workload identity.
func CreateJournal(path string, opt Options) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("bench: creating journal: %w", err)
	}
	j := &Journal{f: f}
	line, err := sealLine(headerFor(opt))
	if err == nil {
		_, err = f.Write(line)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("bench: writing journal header: %w", err)
	}
	return j, nil
}

// ResumeJournal reads an existing journal back, verifies the header against
// opt and every complete record against its checksum, and returns a Journal
// that (a) replays the verified records through any Runner using it and
// (b) appends new records after the verified prefix. A truncated final line
// is discarded as a crash artifact; any other corruption is an error.
func ResumeJournal(path string, opt Options) (*Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: resuming journal: %w", err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	// A final element without a trailing newline is a torn write from a
	// crash: drop it and everything after the last intact record.
	valid := len(data)
	if n := len(lines); n > 0 && len(lines[n-1]) > 0 {
		torn := lines[n-1]
		valid -= len(torn)
		lines = lines[:n-1]
	} else if n > 0 {
		// A file ending in \n splits into a final empty element; it is not
		// a record.
		lines = lines[:n-1]
	}
	if len(lines) == 0 || len(bytes.TrimSpace(lines[0])) == 0 {
		return nil, fmt.Errorf("bench: journal %s has no intact header (crashed before the first record?)", path)
	}
	var hdr journalHeader
	if err := verifyLine(lines[0], &hdr); err != nil {
		return nil, fmt.Errorf("bench: journal %s header: %w", path, err)
	}
	want := headerFor(opt)
	if hdr.Journal != want.Journal || hdr.Version != want.Version {
		return nil, fmt.Errorf("bench: journal %s is %s v%d, want %s v%d",
			path, hdr.Journal, hdr.Version, want.Journal, want.Version)
	}
	if hdr.Scale != want.Scale || hdr.Seed != want.Seed || !sameApps(hdr.Apps, want.Apps) {
		return nil, fmt.Errorf("bench: journal %s was written for scale=%d seed=%d apps=%v; current options are scale=%d seed=%d apps=%v",
			path, hdr.Scale, hdr.Seed, hdr.Apps, want.Scale, want.Seed, want.Apps)
	}
	j := &Journal{replay: map[journalKey]Record{}}
	for i, line := range lines[1:] {
		var rec Record
		if err := verifyLine(line, &rec); err != nil {
			return nil, fmt.Errorf("bench: journal %s record %d: %w", path, i+1, err)
		}
		// Last record wins: a job re-run on resume appends a newer record
		// for the same key, superseding the older one.
		j.replay[journalKey{rec.Sweep, rec.Index}] = rec
	}
	for _, rec := range j.replay {
		if durableClass(rec.Class) {
			j.replayed++
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("bench: reopening journal for append: %w", err)
	}
	if valid < len(data) {
		// Cut the torn tail off before appending, or the next record would
		// be glued onto garbage.
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, fmt.Errorf("bench: truncating torn journal tail: %w", err)
		}
		if _, err := f.Seek(int64(valid), 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("bench: seeking past journal prefix: %w", err)
		}
	}
	j.f = f
	return j, nil
}

// Replayed returns how many distinct jobs ResumeJournal loaded durable
// records for — the work a resumed sweep will not redo.
func (j *Journal) Replayed() int {
	if j == nil {
		return 0
	}
	return j.replayed
}

// Err returns the first record-write failure, if any. Journaling errors
// never abort a sweep; callers that need durability check here (and Close)
// before trusting the journal for a future resume.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close flushes and closes the journal file, returning the first error
// encountered over the journal's lifetime.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		if err := j.f.Close(); err != nil && j.err == nil {
			j.err = err
		}
		j.f = nil
	}
	return j.err
}

// record appends one finished job. Each record is a single Write of one
// line, so a crash can tear at most the final line — exactly what
// ResumeJournal tolerates.
func (j *Journal) record(sweep string, index int, res JobResult) {
	if j == nil {
		return
	}
	rec := Record{
		Sweep:   sweep,
		Index:   index,
		App:     res.Job.App,
		Input:   res.Job.Input,
		Kind:    int(res.Job.Kind),
		Merged:  res.Job.Merged,
		Variant: res.Job.Variant,
		Attempt: res.Attempts,
		Class:   ErrorClass(res.Err),
	}
	if res.Err != nil {
		rec.Err = res.Err.Error()
	} else {
		out := res.Outcome
		rec.Outcome = &out
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return
	}
	line, err := sealLine(&rec)
	if err == nil {
		_, err = j.f.Write(line)
	}
	if err != nil && j.err == nil {
		j.err = fmt.Errorf("bench: journal write failed (sweep continues un-journaled): %w", err)
	}
}

// replayResult returns the journaled result for (sweep, index) if a durable
// record exists. Non-durable classes (canceled, timeout) report !ok so the
// Runner reschedules the job. A durable record whose job fingerprint does
// not match the job now at that index yields an explicit mismatch error —
// never a silently misattributed outcome.
func (j *Journal) replayResult(sweep string, index int, job Job) (JobResult, bool) {
	if j == nil {
		return JobResult{}, false
	}
	j.mu.Lock()
	rec, ok := j.replay[journalKey{sweep, index}]
	j.mu.Unlock()
	if !ok || !durableClass(rec.Class) {
		return JobResult{}, false
	}
	res := JobResult{Job: job, Replayed: true, Attempts: rec.Attempt}
	if rec.App != job.App || rec.Input != job.Input || rec.Kind != int(job.Kind) || rec.Merged != job.Merged || rec.Variant != job.Variant {
		res.Err = &ReplayedError{Class: ClassMismatch, Msg: fmt.Sprintf(
			"%s record %d is for %s/%s kind=%d merged=%v variant=%q, but the sweep scheduled %s/%s kind=%d merged=%v variant=%q here — was the journal written with different options?",
			sweep, index, rec.App, rec.Input, rec.Kind, rec.Merged, rec.Variant,
			job.App, job.Input, int(job.Kind), job.Merged, job.Variant)}
		return res, true
	}
	if rec.Class == ClassOK {
		if rec.Outcome == nil {
			res.Err = &ReplayedError{Class: ClassMismatch, Msg: "ok record with no outcome"}
			return res, true
		}
		res.Outcome = *rec.Outcome
		return res, true
	}
	res.Err = &ReplayedError{Class: rec.Class, Msg: rec.Err}
	return res, true
}

// durableClass reports whether a journaled class settles the job for good.
// Cancellation and timeouts describe the sweep that was interrupted, not
// the simulation itself, so those jobs run again on resume.
func durableClass(class string) bool {
	switch class {
	case ClassCanceled, ClassTimeout, ClassMismatch, "":
		return false
	}
	return true
}

// headerFor builds the header binding a journal to opt. Only fields that
// change what the jobs compute belong here: scheduling knobs (Jobs,
// timeouts) may differ between the interrupted and resumed run.
func headerFor(opt Options) *journalHeader {
	return &journalHeader{Journal: "fifer-bench", Version: journalVersion, Scale: opt.Scale, Seed: opt.Seed, Apps: opt.Apps}
}

func sameApps(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sealLine marshals v with its CRC field zeroed, computes the checksum,
// and re-marshals with the CRC set — one JSON line ready to append.
func sealLine(v any) ([]byte, error) {
	setCRC(v, 0)
	plain, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	setCRC(v, crc32.ChecksumIEEE(plain))
	sealed, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(sealed, '\n'), nil
}

// verifyLine unmarshals one journal line into v and checks its CRC by
// re-marshaling with the CRC field zeroed — reproducing the exact bytes the
// checksum was computed over.
func verifyLine(line []byte, v any) error {
	if err := json.Unmarshal(line, v); err != nil {
		return fmt.Errorf("corrupt record (not valid JSON): %w", err)
	}
	want := getCRC(v)
	setCRC(v, 0)
	plain, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if got := crc32.ChecksumIEEE(plain); got != want {
		return fmt.Errorf("checksum mismatch (stored %08x, computed %08x): journal corrupted", want, got)
	}
	setCRC(v, want)
	return nil
}

// setCRC and getCRC access the CRC field of the two sealed types.
func setCRC(v any, crc uint32) {
	switch r := v.(type) {
	case *journalHeader:
		r.CRC = crc
	case *Record:
		r.CRC = crc
	}
}

func getCRC(v any) uint32 {
	switch r := v.(type) {
	case *journalHeader:
		return r.CRC
	case *Record:
		return r.CRC
	}
	return 0
}
