package sample

import (
	"fmt"

	"resilient/internal/coin"
	"resilient/internal/core"
	"resilient/internal/proto"
	"resilient/internal/quorum"
)

func init() {
	proto.Register(proto.Descriptor{
		ID:             proto.Broadcast,
		Name:           "broadcast",
		Aliases:        []string{"broadcast"},
		Model:          quorum.Malicious,
		Bound:          "(n-1)/3",
		Coin:           coin.SchemeNone,
		NeedsDirectory: true,
		Spawn: func(cfg core.Config, deps proto.Deps) (core.Machine, error) {
			if deps.Directory != nil {
				dir, ok := deps.Directory.(*Directory)
				if !ok {
					return nil, fmt.Errorf("sample: unexpected directory type %T", deps.Directory)
				}
				return NewMachine(cfg, dir, 0, deps.Sink)
			}
			return NewEchoMachine(cfg, 0, deps.Sink)
		},
	})
}
