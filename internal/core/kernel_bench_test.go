package core

import (
	"fmt"
	"testing"

	"fifer/internal/queue"
	"fifer/internal/stage"
)

// blockedPE builds a one-PE Fifer system whose four resident stages all
// have input work but full outputs. Stage 0 starts with one free output
// slot, so the first tick activates it and fills it; from then on every
// tick takes the blocked path (Fire fails, scanStages snapshots every
// stage, the scheduler finds nothing ready) and changes nothing but the
// CPI charge and the sliding cooldown.
func blockedPE(b *testing.B) (*System, *PE) {
	b.Helper()
	sys := NewSystem(testConfig(1))
	pe := sys.PE(0)
	for i := 0; i < 4; i++ {
		in := pe.AllocQueue(fmt.Sprintf("in%d", i), 8)
		out := pe.AllocQueue(fmt.Sprintf("out%d", i), 2)
		in.Enq(queue.Data(1))
		in.Enq(queue.Data(2))
		for out.Space() > 0 && !(i == 0 && out.Space() == 1) {
			out.Enq(queue.Data(1))
		}
		pe.AddStage(passStage(fmt.Sprintf("s%d", i), stage.LocalIn(in), stage.LocalOut(out)))
	}
	for now := uint64(0); now < 4; now++ {
		pe.Tick(now)
	}
	if pe.active != 0 || pe.wake != horizonNever && pe.wake <= 4 {
		b.Fatalf("setup did not reach the blocked state: active %d, wake %d", pe.active, pe.wake)
	}
	return sys, pe
}

// BenchmarkTickBlocked times one PE.Tick on the blocked path — the per-PE
// cost the kernel pays for every PE it cannot park.
func BenchmarkTickBlocked(b *testing.B) {
	_, pe := blockedPE(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pe.Tick(uint64(4 + i))
	}
}

// BenchmarkPECatchUp times settling a parked PE over a 100-cycle window:
// the CPI charge, the occupancy samples, and the DRM OutFull counts that
// replace 100 blocked ticks.
func BenchmarkPECatchUp(b *testing.B) {
	sys, pe := blockedPE(b)
	pe.caughtUp = 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.peCatchUp(pe, pe.caughtUp+100)
	}
}
