package server

import (
	"fmt"

	"repro/internal/elog"
	"repro/internal/transform"
	"repro/pkg/lixto"
)

// dynPipeline is a wrapper compiled and registered at runtime through
// POST /v1/wrappers: one wrapper source feeding one collector on the
// scheduled path, plus the SDK wrapper itself for synchronous one-shot
// extractions. Both paths share the compiled program and its match
// caches.
type dynPipeline struct {
	name string
	w    *lixto.Wrapper
	src  *transform.WrapperSource
	out  *transform.Collector
}

// newDynPipeline compiles nothing: it wires an already-compiled SDK
// wrapper into a schedulable pipeline, optionally attached to the
// server's fleet-shared match cache (nil batch disables batching).
// The emitted documents carry no source attribute, so each delivery is
// byte-identical to running the same program through the SDK.
// Scheduling (interval vs on-demand) lives in the server's pipeState
// and may change over the pipeline's lifetime via PATCH.
func newDynPipeline(name string, w *lixto.Wrapper, f elog.Fetcher, batch *elog.MatchCache) *dynPipeline {
	src := transform.NewWrapperSource(name, w, f)
	src.NoSourceAttr = true
	src.Batch = batch
	return &dynPipeline{name: name, w: w, src: src, out: &transform.Collector{CompName: name + ".out"}}
}

// PipeName implements Pipeline.
func (d *dynPipeline) PipeName() string { return d.name }

// Tick implements Pipeline: one poll of the wrapper source, its
// documents handed to the collector.
func (d *dynPipeline) Tick() error {
	docs, err := d.src.Poll()
	if err != nil {
		return fmt.Errorf("source %s: %w", d.name, err)
	}
	for _, doc := range docs {
		if _, err := d.out.Process(d.name, doc); err != nil {
			return fmt.Errorf("component %s: %w", d.out.CompName, err)
		}
	}
	return nil
}

// Output implements Pipeline.
func (d *dynPipeline) Output() *transform.Collector { return d.out }

// Close detaches the pipeline's wrapper source from the fleet-shared
// match cache, so batch_size stops counting retired wrappers.
func (d *dynPipeline) Close() { d.src.Close() }

// ExtractionStats implements ExtractionStatser, folding in the SDK
// wrapper's output-cache counters: one-shot extractions (POST
// .../extract) reuse output subtrees through the wrapper itself, not
// the scheduled wrapper source, and their reuse must surface in
// /statusz and the /v1 listing all the same.
func (d *dynPipeline) ExtractionStats() transform.ExtractionStats {
	st := d.src.ExtractionStats()
	o := d.w.OutputStats()
	st.OutputReusedNodes += o.ReusedNodes
	st.OutputBuiltNodes += o.BuiltNodes
	st.InstancesAdded += o.InstancesAdded
	st.InstancesRemoved += o.InstancesRemoved
	st.InstancesUnchanged += o.InstancesUnchanged
	return st
}
