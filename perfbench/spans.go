package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded around a call into the program.
// Spans of one workload request share Req; a request's root has Parent 0.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Req    int       `json:"req"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`

	rec *recorder
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so untraced runs pay one nil check per call.
type recorder struct {
	mu    sync.Mutex
	spans []*span
	reqs  int
}

// root opens the root span of a new workload request.
func (r *recorder) root(name string) *span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.reqs++
	req := r.reqs
	r.mu.Unlock()
	return r.open(name, 0, req)
}

// child opens a span under p.
func (r *recorder) child(p *span, name string) *span {
	if r == nil || p == nil {
		return nil
	}
	return r.open(name, p.ID, p.Req)
}

func (r *recorder) open(name string, parent, req int) *span {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: time.Now(), rec: r}
	r.spans = append(r.spans, s)
	return s
}

// done closes the span.
func (s *span) done() {
	if s == nil {
		return
	}
	now := time.Now()
	s.rec.mu.Lock()
	s.End = now
	s.rec.mu.Unlock()
}

// snapshot returns copies of the finished spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if !s.End.IsZero() {
			out = append(out, *s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children count once.
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.End.Sub(s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to [start, end].
func covered(start, end time.Time, children []span) time.Duration {
	iv := make([][2]time.Time, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			iv = append(iv, [2]time.Time{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curA, curB time.Time
	for i, x := range iv {
		switch {
		case i == 0:
			curA, curB = x[0], x[1]
		case x[0].After(curB):
			total += curB.Sub(curA)
			curA, curB = x[0], x[1]
		case x[1].After(curB):
			curB = x[1]
		}
	}
	if len(iv) > 0 {
		total += curB.Sub(curA)
	}
	return total
}

// spanSummary is the per-name aggregate written beside the raw spans.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// summarize aggregates spans by name, largest self time first.
func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	by := map[string]*spanSummary{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &spanSummary{Name: s.Name}
			by[s.Name] = a
		}
		a.Count++
		a.TotalMS += ms(s.End.Sub(s.Start))
		a.SelfMS += ms(self[s.ID])
	}
	out := make([]spanSummary, 0, len(by))
	for _, a := range by {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// writeSpans writes the raw spans and their per-name summary as JSON.
func writeSpans(path string, spans []span) error {
	b, err := json.MarshalIndent(struct {
		Summary []spanSummary `json:"summary"`
		Spans   []span        `json:"spans"`
	}{summarize(spans), spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
