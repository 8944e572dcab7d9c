package server

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resultlog"
	"repro/internal/transform"
	"repro/internal/xmlenc"
)

// The persistence attachment: when Config.ResultStore is set, every
// pipeline's collector journals its deliveries into a queue that the
// delivery plane drains — under the publish mutex, reusing the
// just-encoded snapshot bytes — into the wrapper's append-only result
// log. On restart, Restore replays each log to rebuild the collector
// ring, the published snapshot (ETag and all), the delivery version,
// and any dynamic wrapper registrations and webhook cursors, so reads
// and subscriptions continue byte-identically across a kill -9.

// specFile and hooksFile are the JSON sidecars written next to a
// wrapper's WAL segments.
const (
	specFile  = "spec.json"
	hooksFile = "webhooks.json"
)

// journalEntry is one delivery awaiting its WAL append.
type journalEntry struct {
	version uint64
	doc     *xmlenc.Node
}

// pipePersist wires one pipeline to its result log. The collector's
// Journal callback enqueues deliveries (off the collector lock, never
// blocking on the disk); delivery.publish drains the queue in version
// order under pubMu, so appends are serialized without a lock of their
// own.
type pipePersist struct {
	log *resultlog.Log

	mu      sync.Mutex
	pending []journalEntry
	queued  atomic.Int64 // len(pending) mirror for the lock-free idle check

	// Drain-side state, touched only under the delivery's pubMu:
	// nextVer is the next contiguous version to append; lastDoc and
	// lastXML identify the previous logged content so unchanged
	// re-deliveries become version-only no-op records.
	nextVer uint64
	lastDoc *xmlenc.Node
	lastXML []byte
}

// enqueue is the Collector.Journal callback.
func (pp *pipePersist) enqueue(version uint64, doc *xmlenc.Node) {
	pp.mu.Lock()
	pp.pending = append(pp.pending, journalEntry{version: version, doc: doc})
	pp.queued.Store(int64(len(pp.pending)))
	pp.mu.Unlock()
}

// idle reports whether no deliveries await their append.
func (pp *pipePersist) idle() bool { return pp.queued.Load() == 0 }

// drain appends the queued deliveries to the log in version order.
// Called under the delivery's publish mutex; sn is the current
// snapshot, whose encoded bytes are reused when it matches a queued
// document (the common case: one entry per tick, already encoded).
// Only a contiguous run from nextVer is appended — an entry whose
// predecessor has not been enqueued yet (a racing delivery between its
// version bump and its journal callback) waits for the next drain, so
// the log never has gaps.
func (pp *pipePersist) drain(sn *snapshot) {
	pp.mu.Lock()
	entries := pp.pending
	pp.pending = nil
	pp.mu.Unlock()
	if len(entries) > 1 {
		sort.Slice(entries, func(i, j int) bool { return entries[i].version < entries[j].version })
	}
	appended := 0
	for _, e := range entries {
		if e.version != pp.nextVer {
			break
		}
		rec := resultlog.Record{Version: e.version}
		if e.doc == pp.lastDoc {
			rec.Kind = resultlog.KindNoop
		} else {
			var xml []byte
			if sn != nil && e.doc == sn.doc {
				xml = sn.xml
			} else {
				xml = xmlenc.MarshalIndentBytes(e.doc)
			}
			if bytes.Equal(xml, pp.lastXML) {
				rec.Kind = resultlog.KindNoop
			} else {
				h := fnv.New64a()
				h.Write(xml)
				rec.Kind = resultlog.KindSnapshot
				rec.Fingerprint = h.Sum64()
				rec.XML = xml
				pp.lastXML = xml
			}
			pp.lastDoc = e.doc
		}
		if err := pp.log.Append(rec); err != nil {
			// Counted in the store stats; delivery keeps going — a full
			// disk degrades durability, not reads.
			break
		}
		pp.nextVer++
		appended++
	}
	if appended > 0 && pp.lastXML != nil && pp.log.NeedsCompaction() {
		// Checkpoint compaction: restate the latest snapshot into a fresh
		// segment and drop the older ones, so restore cost tracks the live
		// state rather than the wrapper's lifetime. Still under pubMu, so
		// no append races the rewrite.
		h := fnv.New64a()
		h.Write(pp.lastXML)
		pp.log.Compact(resultlog.Record{
			Version:     pp.nextVer - 1,
			Fingerprint: h.Sum64(),
			XML:         pp.lastXML,
		})
	}
	if appended < len(entries) {
		pp.mu.Lock()
		pp.pending = append(entries[appended:], pp.pending...)
		pp.queued.Store(int64(len(pp.pending)))
		pp.mu.Unlock()
	} else {
		pp.queued.Store(0)
	}
}

// attachPersist opens the pipeline's result log and wires the journal
// path. Called for every registered pipeline when a store is
// configured, before the pipeline ticks.
func (s *Server) attachPersist(ps *pipeState) error {
	store := s.cfg.ResultStore
	if store == nil {
		return nil
	}
	l, err := store.Log(ps.name)
	if err != nil {
		return err
	}
	pp := &pipePersist{log: l, nextVer: l.LastVersion() + 1}
	ps.deliver.persist = pp
	ps.p.Output().Journal = pp.enqueue
	return nil
}

// rehydrate replays the pipeline's result log: the collector ring is
// preloaded with the recovered documents (no-op records re-append the
// previous document, mirroring the live suppressed-tick semantics),
// the delivery plane is primed with a snapshot built from the stored
// bytes verbatim — so the ETag, the conditional-GET behavior, and the
// SSE cursor are identical to the pre-crash process — and the journal
// state is positioned so the next live delivery continues the log.
func (ps *pipeState) rehydrate(retain int) error {
	pp := ps.deliver.persist
	if pp == nil {
		return nil
	}
	if retain <= 0 {
		retain = transform.DefaultRetain
	}
	var (
		docs        []*xmlenc.Node
		lastDoc     *xmlenc.Node
		lastXML     []byte
		lastVer     uint64
		lastSnapVer uint64
	)
	err := pp.log.Replay(func(rec resultlog.Record) error {
		switch rec.Kind {
		case resultlog.KindSnapshot, resultlog.KindCheckpoint:
			doc, err := xmlenc.Unmarshal(string(rec.XML))
			if err != nil {
				return fmt.Errorf("server: result log for %q: version %d: %w", ps.name, rec.Version, err)
			}
			lastDoc, lastXML, lastSnapVer = doc, rec.XML, rec.Version
		case resultlog.KindNoop:
			// Unchanged content: the ring holds the previous document
			// again, exactly as the live no-op tick would have left it.
		default:
			return nil // unknown kind from a future version: skip
		}
		if lastDoc == nil {
			return nil // noop before any snapshot (pre-truncation cursor)
		}
		docs = append(docs, lastDoc)
		if len(docs) > retain {
			docs = docs[1:]
		}
		lastVer = rec.Version
		return nil
	})
	if err != nil {
		return err
	}
	if lastVer == 0 {
		return nil // empty log
	}
	ps.p.Output().Preload(docs, lastVer)
	pp.nextVer = lastVer + 1
	pp.lastDoc = lastDoc
	pp.lastXML = lastXML

	sn := &snapshot{doc: lastDoc, seq: 1, ver: lastSnapVer}
	sn.version.Store(lastVer)
	sn.xml = lastXML
	sn.xmlTag = etagFor(lastXML, 'x')
	ps.deliver.seq.Store(1)
	ps.deliver.cur.Store(sn)
	return nil
}

// Restore rehydrates the server from Config.ResultStore: every
// registered pipeline with logged history gets its ring, snapshot and
// delivery version back; wrappers that were registered dynamically are
// recompiled from their persisted specs and re-registered (without the
// synchronous validation tick — their last good result is already
// restored); webhook registrations resume from their durable cursors.
// Call after registering static pipelines and before Run. It returns
// the number of wrappers restored from disk.
func (s *Server) Restore() (int, error) {
	store := s.cfg.ResultStore
	if store == nil {
		return 0, nil
	}
	names, err := store.Names()
	if err != nil {
		return 0, err
	}
	restored := 0
	for _, name := range names {
		ps := s.pipe(name)
		if ps == nil {
			var spec wrapperSpec
			if err := store.LoadMeta(name, specFile, &spec); err != nil {
				if os.IsNotExist(err) {
					continue // state for a static pipeline not registered this run
				}
				return restored, err
			}
			if err := s.restoreDynamic(spec); err != nil {
				s.cfg.Logf("server: restore: wrapper %q: %v", name, err)
				continue
			}
			ps = s.pipe(name)
			if ps == nil {
				continue
			}
		}
		if ps.deliver.persist == nil {
			if err := s.attachPersist(ps); err != nil {
				return restored, err
			}
		}
		if err := ps.rehydrate(ps.p.Output().Retain); err != nil {
			s.cfg.Logf("server: restore: wrapper %q: %v", name, err)
			continue
		}
		if err := ps.hooks.restore(); err != nil {
			s.cfg.Logf("server: restore: wrapper %q webhooks: %v", name, err)
		}
		restored++
	}
	return restored, nil
}

// restoreDynamic recompiles and re-registers one dynamic wrapper from
// its persisted spec, skipping the synchronous validation tick (the
// wrapper proved itself before the restart; its results are about to
// be rehydrated). Restore runs before Run, so the pipeline starts
// ticking when the scheduler does.
func (s *Server) restoreDynamic(spec wrapperSpec) error {
	if !validName(spec.Name) {
		return fmt.Errorf("invalid persisted wrapper name %q", spec.Name)
	}
	lw, fetcher, err := s.compileSpec(spec.Program, spec.Root, spec.Auxiliary, spec.HTML)
	if err != nil {
		return err
	}
	d := newDynPipeline(spec.Name, lw, fetcher, s.cfg.MatchCache)
	interval := time.Duration(spec.IntervalMS) * time.Millisecond
	onDemand := spec.IntervalMS <= 0
	if interval <= 0 {
		interval = s.cfg.DefaultInterval
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return fmt.Errorf("server: %w", errShuttingDown)
	}
	if _, dup := s.pipes[spec.Name]; dup {
		return fmt.Errorf("server: %w %q", errDuplicatePipeline, spec.Name)
	}
	ps := &pipeState{p: d, name: spec.Name, interval: interval, dynamic: true, onDemand: onDemand}
	s.initPipe(ps)
	s.pipes[spec.Name] = ps
	s.order = append(s.order, spec.Name)
	s.readPipes.Store(spec.Name, ps)
	if s.started {
		s.startLocked(ps)
	}
	s.cfg.Logf("server: restored dynamic pipeline %q (interval %s, on-demand %v)", spec.Name, interval, onDemand)
	return nil
}

// PersistenceStatus returns the result store's counters, or a zero
// value when persistence is not configured. Appears as the
// "persistence" block on /statusz and GET /v1/wrappers.
func (s *Server) PersistenceStatus() resultlog.Stats {
	if s.cfg.ResultStore == nil {
		return resultlog.Stats{}
	}
	return s.cfg.ResultStore.Stats()
}
