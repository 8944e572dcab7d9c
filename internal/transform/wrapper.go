package transform

import (
	"repro/internal/elog"
	"repro/pkg/lixto"
)

// NewWrapperSource builds a wrapper source from a compiled SDK wrapper:
// the source shares the wrapper's bitset-compiled form (and therefore
// its fingerprint-keyed match caches) instead of compiling its own copy
// on the first poll. The program must not be mutated afterwards. An
// optional shared fetch cache (see WrapperSource.Shared) can be set on
// the returned source before its first poll.
func NewWrapperSource(name string, w *lixto.Wrapper, f elog.Fetcher) *WrapperSource {
	return &WrapperSource{
		CompName: name,
		Fetcher:  f,
		Program:  w.Program(),
		Design:   w.Design(),
		compiled: w.Compiled(),
	}
}
