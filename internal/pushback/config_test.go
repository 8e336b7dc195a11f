package pushback

import (
	"errors"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config must be valid (all defaults): %v", err)
	}
	if err := HardenedConfig().Validate(); err != nil {
		t.Fatalf("hardened config invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative history factor", func(c *Config) { c.HistoryFactor = -2 }},
		{"negative history epochs", func(c *Config) { c.MinHistoryEpochs = -1 }},
		{"negative min victim load", func(c *Config) { c.MinVictimLoad = -10 }},
		{"ATR share above one", func(c *Config) { c.ATRShare = 1.5 }},
		{"negative ATR share", func(c *Config) { c.ATRShare = -0.1 }},
		{"negative ATR rise", func(c *Config) { c.ATRRise = -0.1 }},
		{"ATR rise above one", func(c *Config) { c.ATRRise = 1.5 }},
		{"negative ATR decay", func(c *Config) { c.ATRDecay = -0.1 }},
		{"ATR decay above one", func(c *Config) { c.ATRDecay = 1.1 }},
		{"negative stale epochs", func(c *Config) { c.StaleEpochs = -1 }},
		{"negative refire backoff", func(c *Config) { c.RefireBackoffEpochs = -2 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); !errors.Is(err, ErrConfig) {
				t.Fatalf("want ErrConfig, got %v", err)
			}
		})
	}
}
