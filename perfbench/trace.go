package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark around the call (the program itself is not instrumented).
// Spans of one query share Query; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Query  int64  `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; write dumps them once, at exit.
type recorder struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newID reserves a span ID, so a parent's ID can be handed to its
// children before the parent span itself is recorded.
func (r *recorder) newID() int64 {
	if r == nil {
		return 0
	}
	return r.nextID.Add(1)
}

// add records a finished span under a reserved ID.
func (r *recorder) add(id, parent, query int64, name string, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{ID: id, Parent: parent, Query: query, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// time runs fn inside a new span and returns the span's duration. A nil
// recorder only times fn.
func (r *recorder) time(name string, parent, query int64, fn func()) time.Duration {
	id := r.newID()
	start := time.Now()
	fn()
	end := time.Now()
	r.add(id, parent, query, name, start, end)
	return end.Sub(start)
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write dumps every span as one JSON array.
func (r *recorder) write(path string) error {
	b, err := json.Marshal(r.snapshot())
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// selfTimes maps each span ID to its self time: the span's duration minus
// the part of its interval that its children cover (overlapping children
// count once; a child reaching outside its parent counts only inside it).
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, reach int64 = 0, s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
			}
			reach = max(reach, min(c.End, s.End))
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// layerTimes aggregates self time by span name over the given queries:
// for each query, the sum and the maximum of the self times of its spans
// with that name. Spans outside the queries are ignored.
type layerTimes struct {
	sum map[string][]time.Duration // name -> per query sum
	max map[string][]time.Duration // name -> per query max
}

func aggregate(spans []span, queries map[int64]bool) layerTimes {
	self := selfTimes(spans)
	type key struct {
		q    int64
		name string
	}
	sum := map[key]time.Duration{}
	mx := map[key]time.Duration{}
	for _, s := range spans {
		if !queries[s.Query] {
			continue
		}
		k := key{s.Query, s.Name}
		d := self[s.ID]
		sum[k] += d
		if d > mx[k] {
			mx[k] = d
		}
	}
	lt := layerTimes{sum: map[string][]time.Duration{}, max: map[string][]time.Duration{}}
	for k, d := range sum {
		lt.sum[k.name] = append(lt.sum[k.name], d)
		lt.max[k.name] = append(lt.max[k.name], mx[k])
	}
	return lt
}

// meanOf is the mean of ds over n queries (queries without the span count
// as zero).
func meanOf(ds []time.Duration, n int) time.Duration {
	if n == 0 {
		return 0
	}
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t / time.Duration(n)
}
