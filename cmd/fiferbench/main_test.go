package main

import (
	"testing"

	"fifer"
)

// TestConfigOverride pins the mapping from -watchdog, -audit and
// -no-fast-forward to the configuration: a cycle flag of 0 keeps
// DefaultConfig's value, -1 disables the mechanism (0 in the config), and
// N sets N.
func TestConfigOverride(t *testing.T) {
	def := fifer.DefaultConfig()
	for _, tc := range []struct {
		name            string
		watchdog, audit int64
		noFastForward   bool
		wantWatchdog    uint64
		wantAudit       uint64
	}{
		{"defaults", 0, 0, false, def.WatchdogCycles, def.AuditCycles},
		{"disable both", -1, -1, false, 0, 0},
		{"set both", 250000, 256, false, 250000, 256},
		{"disable watchdog only", -1, 0, false, 0, def.AuditCycles},
		{"set audit only", 0, 64, false, def.WatchdogCycles, 64},
		{"no fast-forward", 0, 0, true, def.WatchdogCycles, def.AuditCycles},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fifer.DefaultConfig()
			configOverride(tc.watchdog, tc.audit, tc.noFastForward)(&cfg)
			if cfg.WatchdogCycles != tc.wantWatchdog {
				t.Errorf("-watchdog %d: WatchdogCycles = %d, want %d", tc.watchdog, cfg.WatchdogCycles, tc.wantWatchdog)
			}
			if cfg.AuditCycles != tc.wantAudit {
				t.Errorf("-audit %d: AuditCycles = %d, want %d", tc.audit, cfg.AuditCycles, tc.wantAudit)
			}
			if cfg.NoFastForward != tc.noFastForward {
				t.Errorf("-no-fast-forward=%v: NoFastForward = %v", tc.noFastForward, cfg.NoFastForward)
			}
			want := cfg
			want.WatchdogCycles, want.AuditCycles, want.NoFastForward = def.WatchdogCycles, def.AuditCycles, def.NoFastForward
			if want != def {
				t.Errorf("the override changed a field no flag names")
			}
		})
	}
}
