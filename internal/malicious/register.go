package malicious

import (
	"fmt"

	"resilient/internal/coin"
	"resilient/internal/core"
	"resilient/internal/proto"
	"resilient/internal/quorum"
	"resilient/internal/sample"
)

func init() {
	proto.Register(proto.Descriptor{
		ID:             proto.Malicious,
		Name:           "malicious(fig2)",
		Aliases:        []string{"malicious", "fig2"},
		Model:          quorum.Malicious,
		Bound:          "(n-1)/3",
		Coin:           coin.SchemeNone,
		NeedsDirectory: true,
		CheckName:      "malicious",
		Spawn: func(cfg core.Config, deps proto.Deps) (core.Machine, error) {
			if deps.Directory != nil {
				dir, ok := deps.Directory.(*sample.Directory)
				if !ok {
					return nil, fmt.Errorf("malicious: unexpected directory type %T", deps.Directory)
				}
				return NewSampled(cfg, dir, deps.Sink)
			}
			if !deps.Unsafe {
				if err := validate(cfg); err != nil {
					return nil, err
				}
			}
			// A reused machine is reset onto the full-quorum echo.
			if m, ok := deps.Reuse.(*Machine); ok {
				m.reset(cfg, deps.Sink)
				return m, nil
			}
			return NewUnsafe(cfg, deps.Sink), nil
		},
	})
}
