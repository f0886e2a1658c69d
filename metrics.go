package resilient

import (
	"io"

	"resilient/internal/metrics"
)

// MetricsRegistry is a concurrency-safe registry of counters, gauges, and
// fixed-bucket histograms; see the internal metrics package for the
// instrument semantics. Attach one to SimOptions.Metrics, Scenario.Metrics
// or LogOptions.Metrics, or share one registry across many runs to aggregate
// a whole experiment campaign. A nil registry is always valid and free.
type MetricsRegistry = metrics.Registry

// MetricsSnapshot is the frozen state of a registry. Its JSON encoding
// (WriteJSON) is key-sorted and byte-stable for identical contents, so CI
// can diff and archive snapshots.
type MetricsSnapshot = metrics.Snapshot

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// WriteMetricsJSON writes a registry snapshot as indented, key-sorted JSON.
func WriteMetricsJSON(w io.Writer, r *MetricsRegistry) error {
	return r.Snapshot().WriteJSON(w)
}
