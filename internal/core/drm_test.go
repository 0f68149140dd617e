package core

import (
	"testing"

	"fifer/internal/mem"
	"fifer/internal/queue"
	"fifer/internal/stage"
)

// TestDRMMissStreamClosedForm streams n independent misses (one word from
// each of n distinct lines, all cold) through one dereferencing DRM of the
// default configuration and pins the memory-level parallelism it reaches
// and the cycle every load is delivered.
//
// Table 2 gives the path: a load issued at cycle c misses the 4-cycle L1
// and the 40-cycle LLC, reaches HBM at c+44 and is ready 120 cycles later,
// at c+164, if the channel is free. HBM moves 128 B per cycle, one 64-B
// line per half cycle, and starts lines in arrival order, so a line started
// at half-cycle 2(c+44)+j is ready at c+164+⌈j/2⌉. The DRM holds
// DRMOutstanding = 16 loads, issues up to DRMIssueWidth = 4 per cycle,
// delivers in order, and delivers before it issues, so load i+16 issues in
// the cycle load i is delivered.
//
// Call loads 16k..16k+15 wave k and let e_k(i) be the delivery cycle of
// load 16k+i minus 164(k+1). Wave 0 issues 4 loads per cycle in cycles
// 0..3; HBM serves 2 per cycle, so load i starts at half-cycle 88+i and
// e_0(i) = ⌈i/2⌉. Wave k+1 issues load i at wave k's delivery of load i,
// so relative to 2(164(k+1)+44) it starts at half-cycle
// s(i) = max(2e_k(i), s(i−1)+1). If e_k(i) = min(i, ⌈(i+k)/2⌉), then
// s(i) = 2i for i ≤ k+1 and i+k+1 above, so e_{k+1}(i) = ⌈s(i)/2⌉ =
// min(i, ⌈(i+k+1)/2⌉). By induction, load 16k+i is delivered in cycle
//
//	D(16k+i) = 164(k+1) + min(i, ⌈(i+k)/2⌉).
//
// From wave 14 on, e_k(i) = i: one delivery per cycle and 16 loads per
// 164-cycle round trip, 10.25 cycles per load. n = 4096 loads take
// D(4095)+1 = 164·256 + 15 + 1 = 42000 cycles.
func TestDRMMissStreamClosedForm(t *testing.T) {
	const n = 4096
	cfg := DefaultConfig()
	if cfg.DRMOutstanding != 16 || cfg.DRMIssueWidth != 4 {
		t.Fatalf("derivation assumes 16 outstanding, width 4; config has %d, %d", cfg.DRMOutstanding, cfg.DRMIssueWidth)
	}
	h := cfg.Hier
	if path := h.L1Latency + h.LLCLatency + h.MemLatency; path != 164 || h.MemBW != 2*mem.LineBytes {
		t.Fatalf("derivation assumes a 164-cycle path and two lines per cycle; config has %d cycles, %d B/cycle", path, h.MemBW)
	}
	hier := mem.NewHierarchy(h)
	port := hier.Port(0, mem.NewBacking(n*mem.LineBytes))
	in := queue.NewQueue("addr", n)
	for i := 0; i < n; i++ {
		in.Enq(queue.Data(uint64(i * mem.LineBytes)))
	}
	out := queue.NewQueue("out", n)
	d := NewDRM("drm", in, port, cfg.DRMOutstanding, cfg.DRMIssueWidth)
	d.Configure(DRMDereference, stage.LocalOut(out))

	peak := 0
	var now uint64
	for delivered := uint64(0); delivered < n; now++ {
		if now > 164*n {
			t.Fatalf("stream did not finish in %d cycles", now)
		}
		d.Tick(now)
		peak = max(peak, d.inflight.Len())
		for ; delivered < d.Emitted; delivered++ {
			k, i := delivered/16, delivered%16
			if want := 164*(k+1) + min(i, (i+k+1)/2); now != want {
				t.Fatalf("load %d delivered in cycle %d, want %d", delivered, now, want)
			}
		}
	}
	if peak != cfg.DRMOutstanding {
		t.Errorf("peak in-flight loads = %d, want DRMOutstanding = %d", peak, cfg.DRMOutstanding)
	}
	if now != 42000 {
		t.Errorf("%d loads took %d cycles, want 42000", n, now)
	}
	if l1, llc, reads := hier.L1s[0].Misses, hier.LLC.Misses, hier.Mem.Reads; l1 != n || llc != n || reads != n {
		t.Errorf("misses: L1 %d, LLC %d, HBM reads %d; want %d each", l1, llc, reads, n)
	}
}
