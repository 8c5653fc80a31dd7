package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
)

// span is one timed call from the harness into the program. Spans that
// belong to one packet share its sequence number as ID; Parent is the
// SpanID of the span that caused this one, 0 for none.
type span struct {
	SpanID uint64 `json:"span"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Track  string `json:"track"`
	ID     int64  `json:"id"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// trackSpans is the size of each track's ring: spans are kept in memory,
// the newest overwrite the oldest, and nothing is written until the run
// has been measured.
const trackSpans = 4096

// sampleEvery is the share of Process and Next calls that get a span.
// Timing every call would cost two clock reads per packet per stage —
// more than the engine spends on a 50-byte packet.
const sampleEvery = 64

// track is a span ring with a single writer (one operator instance, or
// the harness under its own lock).
type track struct {
	name  string
	ring  []span
	total uint64 // spans ever recorded
}

func (t *track) add(s span) {
	s.Track = t.name
	t.ring[t.total%trackSpans] = s
	t.total++
}

// tracer owns the tracks of one traced pass. A nil *tracer is the
// untraced pass: every method is then a no-op.
type tracer struct {
	now func() int64 // nanoseconds since the tracer was made, across passes
	ids atomic.Uint64

	mu      sync.Mutex
	tracks  []*track
	stages  []*stage
	harness *track
	open    map[uint64]span // harness spans begun and not yet ended
}

func newTracer() *tracer {
	base := time.Now()
	tr := &tracer{
		now:  func() int64 { return int64(time.Since(base)) },
		open: make(map[uint64]span),
	}
	tr.harness = tr.newTrack("harness")
	return tr
}

func (tr *tracer) newTrack(name string) *track {
	t := &track{name: name, ring: make([]span, trackSpans)}
	tr.mu.Lock()
	tr.tracks = append(tr.tracks, t)
	tr.mu.Unlock()
	return t
}

// begin opens a span for a call the harness itself makes (LaunchOn, Stop,
// Checkpoint, Kill); id is the event's ordinal or -1.
func (tr *tracer) begin(name string, id int64) uint64 {
	if tr == nil {
		return 0
	}
	s := span{SpanID: tr.ids.Add(1), Name: name, ID: id, Start: tr.now()}
	tr.mu.Lock()
	tr.open[s.SpanID] = s
	tr.mu.Unlock()
	return s.SpanID
}

// end closes a span opened by begin.
func (tr *tracer) end(id uint64) {
	if tr == nil {
		return
	}
	now := tr.now()
	tr.mu.Lock()
	if s, ok := tr.open[id]; ok {
		delete(tr.open, id)
		s.End = now
		tr.harness.add(s)
	}
	tr.mu.Unlock()
}

// write dumps every track's ring, oldest span first.
func (tr *tracer) write(path string) error {
	tr.mu.Lock()
	var all []span
	for _, t := range tr.tracks {
		n := t.total
		if n > trackSpans {
			n = trackSpans
		}
		all = append(all, t.ring[:n]...)
	}
	tr.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// stage is the harness's wrapper around one operator instance. The
// operator calls enter/exit around its per-packet work and emit in place
// of ctx.EmitDefault; untraced, these cost one nil check each.
type stage struct {
	op  string
	env *env
	tr  *tracer // nil when untraced
	tk  *track

	calls   uint64 // enter calls
	emits   uint64
	sampled uint64 // calls that got a span
	selfNs  int64  // sampled span time minus the emit children inside it

	// the sampled call in progress
	inSpan  bool
	cur     span
	childNs int64

	// sources time every emit: the blocked share is read off this
	// distribution, and a 1-in-64 sample would miss most flushes.
	everyEmit bool
	emitNs    hist
	emitSum   int64
}

// newStage returns the wrapper for one instance of op.
func (e *env) newStage(op string, source bool) *stage {
	s := &stage{op: op, env: e}
	if e.tr != nil {
		s.tr = e.tr
		s.tk = e.tr.newTrack(op)
		s.everyEmit = source
		e.tr.mu.Lock()
		e.tr.stages = append(e.tr.stages, s)
		e.tr.mu.Unlock()
	}
	return s
}

// enter marks the start of one Process or Next call for packet id, and
// reports whether the call is one of the sampled ones.
func (s *stage) enter(id int64) bool {
	if s.tr == nil {
		return false
	}
	s.calls++
	if s.calls%sampleEvery != 0 {
		return false
	}
	s.inSpan = true
	s.childNs = 0
	s.cur = span{SpanID: s.tr.ids.Add(1), Name: s.op, ID: id, Start: s.tr.now()}
	return true
}

// exit marks the end of the call enter opened.
func (s *stage) exit() {
	if !s.inSpan {
		return
	}
	s.inSpan = false
	s.cur.End = s.tr.now()
	s.tk.add(s.cur)
	s.sampled++
	s.selfNs += s.cur.End - s.cur.Start - s.childNs
}

// emit is ctx.EmitDefault with the time inside it attributed to the
// engine, not to the operator that called it.
func (s *stage) emit(ctx *core.OpContext, p *packet.Packet) error {
	if s.tr == nil {
		return ctx.EmitDefault(p)
	}
	s.emits++
	if !s.inSpan && !s.everyEmit {
		return ctx.EmitDefault(p)
	}
	start := s.tr.now()
	err := ctx.EmitDefault(p)
	end := s.tr.now()
	if s.everyEmit {
		s.emitNs.record(end - start)
		s.emitSum += end - start
	}
	if s.inSpan {
		s.childNs += end - start
		s.tk.add(span{SpanID: s.tr.ids.Add(1), Parent: s.cur.SpanID, Name: "EmitDefault", ID: s.cur.ID, Start: start, End: end})
	}
	return err
}
