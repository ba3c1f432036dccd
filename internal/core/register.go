package core

import (
	"repro/internal/mvm"
	"repro/internal/tm"
)

// SI-TM and its serializable extension SSI-TM (§5.2) self-register so the
// harness and CLIs can construct them through the tm engine registry.
func init() {
	tm.Register("SI-TM", func(o tm.EngineOptions) tm.Engine {
		return New(configFor(o, false))
	})
	tm.Register("SSI-TM", func(o tm.EngineOptions) tm.Engine {
		return New(configFor(o, true))
	})
}

// configFor maps the registry's representation-independent options onto
// the SI-TM configuration.
func configFor(o tm.EngineOptions, serializable bool) Config {
	cfg := DefaultConfig()
	cfg.Serializable = serializable
	cfg.WordGranularity = o.WordGranularity
	if o.UnboundedVersions {
		cfg.MVM.Policy = mvm.Unbounded
	}
	if o.DropOldest {
		cfg.MVM.Policy = mvm.DropOldest
	}
	if o.NoCoalescing {
		cfg.MVM.Coalesce = false
	}
	if o.NoXlate {
		cfg.Cache.XlateEntries = 0
	}
	cfg.Cache.Scratch = o.CacheScratch
	return cfg
}
