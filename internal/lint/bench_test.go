package lint

import (
	"path/filepath"
	"testing"
)

// BenchmarkLintTree times the analysis over the repository's own module, one
// sub-benchmark per rule family plus the full pass. The module is loaded and
// type-checked once outside the timers, so each sub-benchmark measures only
// its family's walk — the numbers CI compares against the stored baseline to
// catch a rule regressing into super-linear behavior.
func BenchmarkLintTree(b *testing.B) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		b.Fatal(err)
	}
	cfg := ProjectConfig(root)
	pkgs, fset, err := loadModule(cfg.Dir)
	if err != nil {
		b.Fatal(err)
	}
	families := []string{
		"determinism", "hotalloc", "metricshandle",
		"locksafety", "msgexhaustive", "quorumarith",
	}
	for _, family := range families {
		b.Run(family, func(b *testing.B) {
			fcfg := cfg
			fcfg.Rules = []string{family}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runLoaded(fcfg, pkgs, fset)
			}
		})
	}
	b.Run("all", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runLoaded(cfg, pkgs, fset)
		}
	})
}
