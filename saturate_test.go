package resilient

import (
	"context"
	"testing"
	"time"
)

// TestRunTCPSaturation: every budgeted message crosses the mesh, and a run
// whose context is already done still reports what it delivered (nothing)
// beside the error.
func TestRunTCPSaturation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := RunTCPSaturation(ctx, SaturationOptions{N: 3, Messages: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Messages != 3000 || rep.MsgsPerSec <= 0 {
		t.Fatalf("delivered %d messages at %.0f msgs/s, want 3000 at a positive rate", rep.Messages, rep.MsgsPerSec)
	}

	done, stop := context.WithCancel(context.Background())
	stop()
	rep, err = RunTCPSaturation(done, SaturationOptions{N: 3, Messages: 3000})
	if rep == nil || err == nil {
		t.Fatalf("cancelled run: report %+v, error %v; want both", rep, err)
	}
}
