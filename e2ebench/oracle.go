package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/server"
	"repro/internal/xmlenc"
	"repro/pkg/lixto"
)

// fullRebuild is the oracle: a fresh compile evaluated without
// incremental reuse, transformed with pib.Design.Transform and encoded
// with xmlenc.MarshalIndentBytes — the SDK's non-incremental path.
func fullRebuild(program, root string, aux []string, html string) ([]byte, error) {
	opts := []lixto.Option{lixto.WithRoot(root), lixto.WithIncremental(false)}
	if len(aux) > 0 {
		opts = append(opts, lixto.WithAuxiliary(aux...))
	}
	w, err := lixto.Compile(program, opts...)
	if err != nil {
		return nil, err
	}
	res, err := w.Extract(context.Background(), lixto.HTML(html))
	if err != nil {
		return nil, err
	}
	return xmlenc.MarshalIndentBytes(w.Design().Transform(res.Base)), nil
}

// audit checks every delivery of the window against the oracle, then
// checks that the audit itself catches a corrupted payload and a
// forged signature.
func (p *phase) audit(wl workload) error {
	byKey := map[string][]int{}
	for _, d := range p.deliveries {
		byKey[d.key] = append(byKey[d.key], d.rev)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	want := make(map[string]map[int]uint64, len(keys))
	var mu sync.Mutex
	var firstErr error
	jobs := make(chan string, len(keys))
	for _, k := range keys {
		jobs <- k
	}
	close(jobs)
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				revs := byKey[k]
				slices.Sort(revs)
				revs = slices.Compact(revs)
				exp, err := wl.oracle(k, revs)
				hashes := make(map[int]uint64, len(exp))
				for rev, b := range exp {
					hashes[rev] = payloadHash(b)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("oracle %s: %w", k, err)
				}
				want[k] = hashes
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	for _, d := range p.deliveries {
		p.check(d, want)
	}
	return p.selfCheck(wl)
}

// check compares one delivery with the oracle's bytes for its version.
func (p *phase) check(d delivery, want map[string]map[int]uint64) {
	h, ok := want[d.key][d.rev]
	if !ok || h != d.hash {
		p.wrong(d.op, "payload differs from full rebuild")
	}
}

// selfCheck feeds a deliberately corrupted copy of a delivered payload
// through the same check, and a forged signature through the same
// verification, and records an incorrect result unless both are
// caught.
func (p *phase) selfCheck(wl workload) error {
	if p.sample == nil {
		p.incorrect["no delivery to self-check"]++
		return nil
	}
	rev := revOf(p.sample)
	exp, err := wl.oracle(p.sampleKey, []int{rev})
	if err != nil {
		return fmt.Errorf("self-check oracle: %w", err)
	}
	want := map[string]map[int]uint64{p.sampleKey: {rev: payloadHash(exp[rev])}}
	bad := slices.Clone(p.sample)
	bad[len(bad)/2] ^= 0x20
	probe := newPhase()
	probe.check(delivery{key: p.sampleKey, rev: rev, hash: payloadHash(p.sample), op: 0}, want)
	intact := probe.failed() == 0
	probe.check(delivery{key: p.sampleKey, rev: revOf(bad), hash: payloadHash(bad), op: 1}, want)
	caught := probe.failed() == 1 && probe.failedOps[1]
	forged := server.VerifySignature(hookSecret, bad, server.SignPayload(hookSecret, p.sample))
	if !intact || !caught || forged {
		p.incorrect["self-check"]++
	}
	return nil
}
