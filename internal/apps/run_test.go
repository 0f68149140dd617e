package apps

import (
	"errors"
	"strings"
	"testing"

	"fifer/internal/core"
	"fifer/internal/ooo"
)

// fakeApp is an App without a pipeline. Its output is the OOO core count
// or the CGRA PE count, and check judges it.
func fakeApp(check func(int) error, tweak func(*core.Config)) App[int] {
	return App[int]{
		Name:         "fake",
		BackingBytes: 1 << 20,
		Tweak:        tweak,
		OOO:          func(m *ooo.Machine) int { return len(m.Cores) },
		Build: func(sys *core.System, merged bool) (core.Program, func() int) {
			return Halt, func() int { return sys.Cfg.PEs }
		},
		Check: check,
	}
}

// TestRunBuildsEachKind pins the decisions Run owns: core counts, base
// configs, memory size, LLC scaling, and that the app's tweak runs before
// the caller's override.
func TestRunBuildsEachKind(t *testing.T) {
	const scale = 1
	cgraLLC := core.DefaultConfig().Hier.LLCBytes / LLCDivisor(scale)
	wantOutput := map[SystemKind]int{SerialOOO: 1, MulticoreOOO: 4, StaticPipe: 16, FiferPipe: 16}
	wantMode := map[SystemKind]core.Mode{StaticPipe: core.ModeStatic, FiferPipe: core.ModeFifer}
	for _, kind := range Kinds {
		var tweaked core.Config
		var overridden bool
		tweak := func(cfg *core.Config) {
			tweaked = *cfg
			cfg.QueueMemBytes = 1234
		}
		override := func(cfg *core.Config) {
			overridden = true
			if cfg.QueueMemBytes != 1234 {
				t.Errorf("%v: override ran before the tweak (QueueMemBytes=%d)", kind, cfg.QueueMemBytes)
			}
		}
		var got int
		out, err := Run(kind, scale, false, override, fakeApp(func(n int) error { got = n; return nil }, tweak))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !out.Verified || out.Kind != kind {
			t.Errorf("%v: outcome kind %v, verified %v", kind, out.Kind, out.Verified)
		}
		if got != wantOutput[kind] {
			t.Errorf("%v: ran on %d cores/PEs, want %d", kind, got, wantOutput[kind])
		}
		if kind == SerialOOO || kind == MulticoreOOO {
			if overridden || tweaked.PEs != 0 {
				t.Errorf("%v: an OOO run applied the CGRA tweak or override", kind)
			}
			if oooLLC := ooo.NewMachine(got, 1<<20).Hier.Config.LLCBytes / LLCDivisor(scale); out.Counts.LLCBytes != oooLLC {
				t.Errorf("%v: LLC %d bytes, want %d", kind, out.Counts.LLCBytes, oooLLC)
			}
			continue
		}
		if !overridden {
			t.Errorf("%v: override never ran", kind)
		}
		if tweaked.Mode != wantMode[kind] || tweaked.BackingBytes != 1<<20 || tweaked.Hier.LLCBytes != cgraLLC {
			t.Errorf("%v: tweak saw mode %v, backing %d, LLC %d; want %v, %d, %d", kind,
				tweaked.Mode, tweaked.BackingBytes, tweaked.Hier.LLCBytes, wantMode[kind], 1<<20, cgraLLC)
		}
		if out.Counts.LLCBytes != cgraLLC {
			t.Errorf("%v: ran with LLC %d bytes, want %d", kind, out.Counts.LLCBytes, cgraLLC)
		}
	}
}

// TestRunErrorsNameKindAndApp pins the error format: "<kind> <app>: …",
// whether the check, the config or the kind is at fault.
func TestRunErrorsNameKindAndApp(t *testing.T) {
	boom := errors.New("boom")
	fail := fakeApp(func(int) error { return boom }, nil)
	for _, kind := range Kinds {
		out, err := Run(kind, 0, false, nil, fail)
		if !errors.Is(err, boom) || err.Error() != kind.String()+" fake: boom" {
			t.Errorf("%v: err = %v, want %q", kind, err, kind.String()+" fake: boom")
		}
		if out.Verified {
			t.Errorf("%v: failed check still marked verified", kind)
		}
	}
	noPEs := func(cfg *core.Config) { cfg.PEs = 0 }
	for _, kind := range []SystemKind{StaticPipe, FiferPipe} {
		_, err := Run(kind, 0, false, noPEs, fakeApp(func(int) error { return nil }, nil))
		if err == nil || !strings.HasPrefix(err.Error(), kind.String()+" fake: core: ") {
			t.Errorf("%v: err = %v, want a core config error after %q", kind, err, kind.String()+" fake: ")
		}
	}
	if _, err := Run(SystemKind(99), 0, false, nil, fail); err == nil || !strings.Contains(err.Error(), "unknown system kind") {
		t.Errorf("kind 99: err = %v, want unknown system kind", err)
	}
}
