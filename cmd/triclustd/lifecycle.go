package main

import (
	"time"

	"triclust"
)

// topicState is a topic's one lifecycle word. Only topic.transition
// writes it, under tp.mu; the read plane, the write gates and healthz
// load it lock-free.
//
//	serving ──degrade──▶ degraded  DegradeAfter consecutive durable-write
//	                               failures, or ENOSPC: read-only, reads
//	                               served from the last durable view
//	serving/degraded ──park──▶ parked
//	                               the rollback reload failed: no state
//	                               disk vouches for, reads refuse too
//	parked ──reload──▶ degraded    durable state re-read from disk
//	degraded ──save──▶ serving     the storage probe's proving save
//	any ──retire──▶ retired        deleted, fenced or handed off; absorbing
//
// So a parked topic serves again only through a reload followed by a
// save, and nothing brings a retired topic back.
type topicState int32

const (
	stServing topicState = iota
	stDegraded
	stParked
	stRetired
)

// topicEvent is an input to the lifecycle (see topicState).
type topicEvent int

const (
	evDegrade topicEvent = iota
	evPark
	evReload
	evSave
	evRetire
)

// next is the lifecycle's transition table.
func (st topicState) next(ev topicEvent) topicState {
	switch {
	case st == stRetired || ev == evRetire:
		return stRetired
	case ev == evPark:
		return stParked
	case ev == evDegrade && st == stServing,
		ev == evReload && st == stParked:
		return stDegraded
	case ev == evSave && st == stDegraded:
		return stServing
	}
	return st
}

// transition applies ev to the topic's state and reports the states it
// moved between. Caller holds tp.mu.
func (tp *topic) transition(ev topicEvent) (from, to topicState) {
	from = tp.state()
	to = from.next(ev)
	tp.st.Store(int32(to))
	return from, to
}

func (tp *topic) state() topicState { return topicState(tp.st.Load()) }

// retired reports that the topic left service for good; no request that
// still holds a reference to it may apply or persist anything.
func (tp *topic) retired() bool { return tp.state() == stRetired }

// vouched reports that the topic's engine holds only state disk vouches
// for: it is serving or degraded. A parked engine may hold a batch that
// was refused and never made durable, so it is never saved, moved or
// shipped; a retired topic is out of service.
func (tp *topic) vouched() bool {
	st := tp.state()
	return st == stServing || st == stDegraded
}

// newTopic wraps an engine as a served topic, stamped with this shard's
// conformance mode. Restored and replayed engines carry no mode (replay
// must redo recorded batches whatever today's policy), so the mode
// applies to new batches only, from here on.
func (s *server) newTopic(name string, eng *triclust.Topic) *topic {
	eng.SetConformanceMode(s.conform)
	tp := &topic{name: name, created: time.Now().UTC()}
	tp.engp.Store(eng)
	return tp
}

// retire takes tp out of service for good — delete, fence, and both
// exits of a hand-off: it leaves the registry (if still registered under
// its name), becomes retired, closes its journal and drops its shipping
// state. Its files are the caller's to keep or remove: an ambiguous
// hand-off must keep its snapshot for the resume. Caller holds tp.mu.
func (s *server) retire(tp *topic) {
	s.mu.Lock()
	if s.topics[tp.name] == tp {
		delete(s.topics, tp.name)
	}
	s.mu.Unlock()
	tp.transition(evRetire)
	if tp.jw != nil {
		tp.jw.Close()
		tp.jw = nil
	}
	if s.repl != nil {
		s.repl.dropTopicState(tp.name)
	}
}

// reloadEngine swaps in the topic's engine rebuilt from disk — snapshot
// plus verified journal tail, exactly as a restart would — keeping its
// ownership epoch and this shard's conformance mode. The lock-free read
// plane sees the swap atomically. Caller holds tp.mu.
func (s *server) reloadEngine(tp *topic) error {
	rt, err := s.store.load(tp.name, s.logf)
	if err != nil {
		return err
	}
	rt.tp.SetEpoch(tp.eng().Epoch())
	rt.tp.SetConformanceMode(s.conform)
	tp.engp.Store(rt.tp)
	return nil
}
