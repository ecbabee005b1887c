package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// chromeEvent is one trace_event record. Complete spans use Ph "X" with
// Ts/Dur in microseconds; instants use Ph "i" with scope "t" (thread).
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// us converts a duration to trace microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// WriteChrome renders the trace in the Chrome trace_event JSON format (the
// "JSON Array Format" with a traceEvents wrapper), loadable in
// chrome://tracing and https://ui.perfetto.dev. A span's lane is its
// worker attr: tid 0 is the runtime lane (RuntimeLane, or spans without a
// worker), tid w+1 is worker w's lane. Zero-length spans render as thread
// instants; batch spans carry nested split and task phase spans built from
// their split_ns/task_ns attrs. Records follow thread_name metadata naming
// each lane, sorted by (tid, ts), with timestamps relative to the trace's
// earliest span.
func (t *Trace) WriteChrome(w io.Writer) error {
	var base time.Time
	for i, s := range t.Spans {
		if i == 0 || s.Start.Before(base) {
			base = s.Start
		}
	}
	lanes := map[int]bool{}
	var events []chromeEvent
	for _, s := range t.Spans {
		tid := 0
		var splitNS, taskNS int64
		args := make(map[string]any, len(s.Attrs)+1)
		for _, a := range s.Attrs {
			if !a.IsInt {
				args[a.Key] = a.Str
				continue
			}
			args[a.Key] = a.Int
			switch a.Key {
			case "worker":
				tid = int(a.Int) + 1
			case "split_ns":
				splitNS = a.Int
			case "task_ns":
				taskNS = a.Int
			}
		}
		if s.Err != "" {
			args["error"] = s.Err
		}
		lanes[tid] = true
		cat, _, _ := strings.Cut(s.Name, " ")
		e := chromeEvent{Name: s.Name, Cat: cat, Ph: "X", Ts: us(s.Start.Sub(base)),
			Dur: us(s.Dur()), Pid: 1, Tid: tid, Args: args}
		if e.Dur == 0 {
			e.Ph, e.Scope = "i", "t"
		}
		events = append(events, e)
		if cat == "batch" {
			// chrome://tracing nests X events by containment: split at the
			// front of the batch, then task.
			split, task := float64(splitNS)/1e3, float64(taskNS)/1e3
			events = append(events,
				chromeEvent{Name: "split", Cat: "phase", Ph: "X", Ts: e.Ts, Dur: split, Pid: 1, Tid: tid},
				chromeEvent{Name: "task", Cat: "phase", Ph: "X", Ts: e.Ts + split, Dur: task, Pid: 1, Tid: tid})
		}
	}

	tids := make([]int, 0, len(lanes))
	for tid := range lanes {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	all := make([]chromeEvent, 0, len(tids)+len(events))
	for _, tid := range tids {
		name := "runtime"
		if tid > 0 {
			name = fmt.Sprintf("worker %d", tid-1)
		}
		all = append(all, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": name}})
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Tid != events[j].Tid {
			return events[i].Tid < events[j].Tid
		}
		return events[i].Ts < events[j].Ts
	})
	all = append(all, events...)

	out, err := json.MarshalIndent(map[string]any{"traceEvents": all}, "", " ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(out, '\n'))
	return err
}
