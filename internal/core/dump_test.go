package core

import (
	"strings"
	"testing"

	"fifer/internal/queue"
	"fifer/internal/stage"
)

// TestDumpNamesBlockedState drives a deliberately wedged system — a stage
// that never fires over a full input queue, plus a DRM blocked on a full
// output — and asserts Dump() names each piece of stuck state: the blocked
// stage, its queue occupancies, and the busy DRM. This is the contract
// deadlock diagnosis rests on.
func TestDumpNamesBlockedState(t *testing.T) {
	cfg := testConfig(1)
	cfg.WatchdogCycles = 0
	cfg.AuditCycles = 0
	cfg.MaxCycles = 400
	sys := NewSystem(cfg)
	pe := sys.PE(0)

	qin := pe.AllocQueue("qin", 4)
	for i := 0; i < 4; i++ {
		qin.Enq(queue.Data(uint64(i)))
	}
	pe.AddStage(&stage.Stage{
		Name: "wedged",
		Fire: func(*stage.Ctx) stage.Status {
			return stage.NoOutput
		},
		Mapping:   passDFG("wedged"),
		In:        []stage.In{stage.LocalIn(qin)},
		StateWork: func() int { return 2 },
	})

	// A DRM whose 1-slot output queue fills immediately: it stays busy with
	// addresses buffered and completions it cannot deliver.
	arr := sys.Backing.AllocSlice([]uint64{1, 2, 3, 4})
	dout := pe.AllocQueue("dout", 1)
	d := pe.DRM(0)
	d.Configure(DRMDereference, stage.LocalOut(dout))
	for i := 0; i < 4; i++ {
		d.In().Enq(queue.Data(uint64(arr) + uint64(i*8)))
	}

	_, err := sys.Run(ProgramFunc(func(*System) bool { return false }))
	stopError(t, err, ErrMaxCycles)

	dump := sys.Dump()
	for _, want := range []string{
		"active=wedged",          // the blocked stage is the active one
		"stage wedged",           // per-stage line
		"stateWork=2",            // register-held work is visible
		"queue pe0.qin len=4/4",  // full input queue occupancy
		"queue pe0.dout len=1/1", // full DRM output queue
		"drm pe0.drm0",           // the busy DRM
		"busy",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("Dump() lacks %q:\n%s", want, dump)
		}
	}

	for _, want := range []string{"wait-for", "wedged", "pe0.dout"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Run's error lacks %q:\n%v", want, err)
		}
	}
}
