package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer. Parent is 0 for a root span; every span of one run shares the
// log's run ID.
type span struct {
	ID     uint64
	Parent uint64
	Name   string
	Start  time.Time
	End    time.Time
}

// spanLog keeps a traced run's spans in memory until the run ends. A nil
// *spanLog records nothing, so untraced code paths call it unguarded.
type spanLog struct {
	run   uint64
	spans []span
}

func newSpanLog(run uint64) *spanLog { return &spanLog{run: run} }

// begin opens a span and returns its ID (0 on a nil log).
func (l *spanLog) begin(name string, parent uint64) uint64 {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{ID: uint64(len(l.spans) + 1), Parent: parent, Name: name, Start: time.Now()})
	return uint64(len(l.spans))
}

// end closes the span begin returned.
func (l *spanLog) end(id uint64) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].End = time.Now()
}

// add records an already-finished interval (e.g. one the program's own
// tracer reported as end time plus duration) and returns its ID.
func (l *spanLog) add(name string, parent uint64, start, end time.Time) uint64 {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{ID: uint64(len(l.spans) + 1), Parent: parent, Name: name, Start: start, End: end})
	return uint64(len(l.spans))
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its children cover. Children that overlap each other
// (parallel participants) are merged first, so covered time is never
// counted twice, and child time outside the parent is ignored.
func selfTimes(spans []span) map[uint64]time.Duration {
	type iv struct{ lo, hi int64 }
	kids := make(map[uint64][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start.UnixNano(), s.End.UnixNano()})
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		lo, hi := s.Start.UnixNano(), s.End.UnixNano()
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
		var covered, curLo, curHi int64
		open := false
		for _, c := range cs {
			a, b := max(c.lo, lo), min(c.hi, hi)
			if a >= b {
				continue
			}
			if open && a <= curHi {
				curHi = max(curHi, b)
				continue
			}
			if open {
				covered += curHi - curLo
			}
			curLo, curHi, open = a, b, true
		}
		if open {
			covered += curHi - curLo
		}
		out[s.ID] = time.Duration(hi - lo - covered)
	}
	return out
}

// selfByName sums self time per span name and counts the spans.
func selfByName(spans []span) (map[string]time.Duration, map[string]int) {
	self := selfTimes(spans)
	sum := make(map[string]time.Duration)
	n := make(map[string]int)
	for _, s := range spans {
		sum[s.Name] += self[s.ID]
		n[s.Name]++
	}
	return sum, n
}

// writeJSONL writes the spans, one JSON object per line, to path.
func (l *spanLog) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		rec := struct {
			Run    string `json:"run"`
			ID     uint64 `json:"id"`
			Parent uint64 `json:"parent,omitempty"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{fmt.Sprintf("%x", l.run), s.ID, s.Parent, s.Name, s.Start.UnixNano(), s.End.UnixNano()}
		if err := enc.Encode(rec); err != nil {
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

// writeProgramTrace saves the program's own JSONL trace (the tracer wrote
// it to memory during the traced window) next to the benchmark's spans, in
// the format cmd/fedtrace reads.
func writeProgramTrace(r *run, jsonl []byte) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d-program.jsonl", r.opts.workload, r.opts.seed))
	if err := os.WriteFile(path, jsonl, 0o644); err != nil {
		return err
	}
	r.note("program trace written to %s", path)
	return nil
}
