package sontm

import "repro/internal/tm"

// The conflict-serializable SONTM baseline self-registers under the
// paper's name so the harness and CLIs can construct it through the tm
// engine registry.
func init() {
	tm.Register("SONTM", func(o tm.EngineOptions) tm.Engine {
		cfg := DefaultConfig()
		cfg.Cache.Scratch = o.CacheScratch
		return New(cfg)
	})
}
