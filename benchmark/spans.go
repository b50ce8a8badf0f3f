package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
)

// span is one timed interval recorded around a call the benchmark makes
// into a layer, or reconstructed from the journal's event timestamps.
// Times are wall-clock Unix nanoseconds, the clock the service stamps its
// journal events with, so client-side and server-side spans compare
// directly. Spans of one unit of work share ID (a job or campaign ID, or
// a replay key); Parent is the number of the enclosing span, 0 at a root.
type span struct {
	ID     string `json:"id"`
	Span   int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps every span in memory until the run ends. A nil *spanLog
// records nothing, so untraced runs pay one nil check per call site.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// add records one span and returns its number (0 on a nil log).
func (l *spanLog) add(id string, parent int, name string, start, end int64) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Span: n, Parent: parent, Name: name, Start: start, End: end})
	return n
}

// clamp narrows [start, end] into the parent span, for child intervals
// reconstructed from a duration measured on another clock.
func (l *spanLog) clamp(parent int, start, end int64) (int64, int64) {
	if l == nil || parent == 0 {
		return start, end
	}
	l.mu.Lock()
	p := l.spans[parent-1]
	l.mu.Unlock()
	start = min(max(start, p.Start), p.End)
	end = min(max(end, start), p.End)
	return start, end
}

// durations returns the durations, in milliseconds, of every span with
// the given name.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes checks the nesting of spans — every span ends no earlier than
// it starts and lies inside its parent — and returns each span's self
// time in nanoseconds: its duration minus the part of it that the union
// of its children's intervals covers. The errors list every violation.
func selfTimes(spans []span) (map[int]int64, []error) {
	byNum := make(map[int]*span, len(spans))
	children := make(map[int][]*span)
	for i := range spans {
		s := &spans[i]
		byNum[s.Span] = s
		children[s.Parent] = append(children[s.Parent], s)
	}
	var errs []error
	self := make(map[int]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.End < s.Start {
			errs = append(errs, fmt.Errorf("span %d (%s %s) ends before it starts", s.Span, s.ID, s.Name))
		}
		if s.Parent != 0 {
			p := byNum[s.Parent]
			switch {
			case p == nil:
				errs = append(errs, fmt.Errorf("span %d (%s %s) has unknown parent %d", s.Span, s.ID, s.Name, s.Parent))
			case s.Start < p.Start || s.End > p.End:
				errs = append(errs, fmt.Errorf("span %d (%s %s) [%d, %d] lies outside parent %d (%s) [%d, %d]",
					s.Span, s.ID, s.Name, s.Start, s.End, p.Span, p.Name, p.Start, p.End))
			}
		}
		kids := children[s.Span]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.Span] = s.End - s.Start - covered
		if self[s.Span] < 0 {
			errs = append(errs, fmt.Errorf("span %d (%s %s) has negative self time", s.Span, s.ID, s.Name))
		}
	}
	return self, errs
}
