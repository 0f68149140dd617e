package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// The sweep's progress callback records spans from the runner's worker
// goroutines while the pass goroutine records its own.
func TestTracerConcurrentUse(t *testing.T) {
	tr := newTracer()
	pass := tr.begin(-1, "pass", "p")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := tr.begin(pass, "job", "j")
				tr.end(id)
				tr.add(pass, "job", "k", time.Now(), time.Now())
			}
		}()
	}
	wg.Wait()
	tr.end(pass)

	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 801 {
		t.Fatalf("%d spans, want 801", len(spans))
	}
	for i, s := range spans {
		if s.ID != i || s.End < s.Start {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin(-1, "pass", "p")
	tr.end(id)
	tr.add(id, "job", "j", time.Now(), time.Now())
	ran := false
	tr.labeled("j", func() { ran = true })
	if id != -1 || !ran {
		t.Fatalf("nil tracer: id %d, ran %v", id, ran)
	}
}
