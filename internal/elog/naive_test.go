package elog

import (
	"errors"
	"fmt"

	"repro/internal/pib"
)

// runNaive is the reference the semi-naive fixpoint is checked
// against: the evaluator's former loop, kept only in tests. Every pass
// re-applies every rule to all of its parents, serially and in rule
// order, until a pass commits nothing. A parent's crawl URL is
// announced to the frontier once; a dangling link is skipped, and —
// since every pass re-applies the rule — attempted again in each later
// pass.
func runNaive(ev *Evaluator, p *Program, cp *CompiledProgram) (*pib.Base, error) {
	r, strata, err := ev.start(p, cp)
	defer r.fr.drain()
	if err != nil {
		return r.base, err
	}
	announced := map[*pib.Instance]bool{}
	for _, waves := range strata {
		for changed := true; changed; {
			changed = false
			for _, w := range waves {
				for _, rule := range w.rules {
					var parents []*pib.Instance
					if rule.DocURL != "" {
						in, err := r.fetchDoc(rule.DocURL)
						if err != nil {
							return r.base, fmt.Errorf("elog: rule for %s: %w", rule.Head, err)
						}
						parents = []*pib.Instance{in}
					} else {
						parents = r.base.Instances(rule.Parent)
					}
					if rule.Extract != nil && rule.Extract.Kind == GetDocument {
						for _, s := range parents {
							if url, ok := crawlURL(s); ok && !announced[s] {
								announced[s] = true
								r.fr.prefetch(url)
							}
						}
					}
					for _, s := range parents {
						added, err := r.applyRule(rule, s)
						if errors.Is(err, errDangling) {
							continue
						}
						if err != nil {
							return r.base, err
						}
						changed = changed || added
						if err := r.checkLimit(); err != nil {
							return r.base, err
						}
					}
				}
			}
		}
	}
	return r.base, nil
}

// RunNaive exposes the naive reference to the external test package:
// it evaluates cp when it is non-nil, else p interpreted.
func (ev *Evaluator) RunNaive(p *Program, cp *CompiledProgram) (*pib.Base, error) {
	if cp != nil {
		p = cp.Program
	}
	return runNaive(ev, p, cp)
}
