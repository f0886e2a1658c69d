package sample

import (
	"resilient/internal/echo"
	"resilient/internal/msg"
)

// NewTracker returns receiver self's echo tally under dir's plan: the
// Figure-2 rule counted over self's echo sample only, accepting at Ê
// instead of more than (n+k)/2. Honest senders (routed by
// Directory.EchoTargets) never send the other echoes, which is the whole
// message-complexity win.
func NewTracker(dir *Directory, self msg.ID) *echo.Tracker {
	p := dir.Plan()
	return echo.NewSampledTracker(p.N, dir.EchoSample(self), p.EchoThreshold)
}
