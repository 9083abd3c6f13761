package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"dstore/internal/memsys"
)

// chromeEvent is one record in the Chrome trace-event JSON format
// (loadable by Perfetto and chrome://tracing). Components map to
// threads of a single process; ts is the simulation tick.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   uint64            `json:"ts"`
	Dur  uint64            `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Cat  string            `json:"cat,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeFor translates one ring event. encoding/json sorts the Args map
// keys, so the byte output is fully determined by the event stream.
func (o *Observer) chromeFor(ev Event) chromeEvent {
	addr := fmt.Sprintf("0x%x", uint64(ev.Addr))
	switch ev.Kind {
	case EvMsg:
		return chromeEvent{
			Name: "msg " + MsgClass(ev.Arg).String(),
			Ph:   "i", S: "t", Cat: "msg",
			Ts: uint64(ev.When), Tid: int(ev.Comp),
			Args: map[string]string{"addr": addr, "to": o.CompName(CompID(ev.A))},
		}
	case EvState:
		from, to := ev.Arg>>4, ev.Arg&0xf
		return chromeEvent{
			Name: o.stateStr(from) + "->" + o.stateStr(to),
			Ph:   "i", S: "t", Cat: "state",
			Ts: uint64(ev.When), Tid: int(ev.Comp),
			Args: map[string]string{"addr": addr},
		}
	case EvPush:
		return chromeEvent{
			Name: "push",
			Ph:   "i", S: "t", Cat: "push",
			Ts: uint64(ev.When), Tid: int(ev.Comp),
			Args: map[string]string{"addr": addr, "to": o.CompName(CompID(ev.A))},
		}
	case EvAccess:
		verdict := "miss"
		if ev.Arg&1 != 0 {
			verdict = "hit"
		}
		return chromeEvent{
			Name: fmt.Sprintf("L%d %s", ev.Arg>>1, verdict),
			Ph:   "i", S: "t", Cat: "cache",
			Ts: uint64(ev.When), Tid: int(ev.Comp),
			Args: map[string]string{"addr": addr},
		}
	case EvLat:
		// A completed access renders as a duration slice ending at the
		// completion tick.
		ts := uint64(ev.When)
		if ev.A <= ts {
			ts -= ev.A
		}
		return chromeEvent{
			Name: HistID(ev.Arg).String(),
			Ph:   "X", Cat: "lat",
			Ts: ts, Dur: ev.A, Tid: int(ev.Comp),
			Args: map[string]string{"addr": addr},
		}
	default:
		return chromeEvent{
			Name: fmt.Sprintf("event(%d)", ev.Kind),
			Ph:   "i", S: "t",
			Ts: uint64(ev.When), Tid: int(ev.Comp),
		}
	}
}

// WriteTrace streams the recorded events as Chrome trace-event JSON:
// one "M" thread_name metadata record per registered component, then
// the events in chronological order. The output is byte-identical for
// identical event streams. Nil-safe: writes an empty trace.
func (o *Observer) WriteTrace(w io.Writer) error {
	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(ce chromeEvent) error {
		b, err := json.Marshal(ce)
		if err != nil {
			return err
		}
		if !first {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = w.Write(b)
		return err
	}
	if o != nil {
		for id, name := range o.comps {
			ce := chromeEvent{
				Name: "thread_name", Ph: "M", Tid: id,
				Args: map[string]string{"name": name},
			}
			if err := emit(ce); err != nil {
				return err
			}
		}
		for _, ev := range o.Events() {
			if err := emit(o.chromeFor(ev)); err != nil {
				return err
			}
		}
	}
	if _, err := io.WriteString(w, "\n]"); err != nil {
		return err
	}
	if d := o.Dropped(); d > 0 {
		if _, err := fmt.Fprintf(w, ",\"otherData\":{\"droppedEvents\":\"%d\"}", d); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}\n")
	return err
}

// WriteTimeline dumps the per-line coherence-state history recovered
// from the EvState events: one section per line address (ascending),
// with chronological "t=<tick> <component> <from>-><to>" rows. It is
// the grep-friendly companion to the Chrome trace. Nil-safe.
func (o *Observer) WriteTimeline(w io.Writer) error {
	if _, err := io.WriteString(w, "# coherence state timeline (per line address)\n"); err != nil {
		return err
	}
	if o == nil {
		return nil
	}
	byLine := make(map[memsys.Addr][]Event)
	for _, ev := range o.Events() {
		if ev.Kind != EvState {
			continue
		}
		byLine[ev.Addr] = append(byLine[ev.Addr], ev)
	}
	lines := make([]memsys.Addr, 0, len(byLine))
	//dstore:allow-maprange keys are sorted before any output is written
	for a := range byLine {
		lines = append(lines, a)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, a := range lines {
		if _, err := fmt.Fprintf(w, "line 0x%08x\n", uint64(a)); err != nil {
			return err
		}
		for _, ev := range byLine[a] {
			from, to := ev.Arg>>4, ev.Arg&0xf
			if _, err := fmt.Fprintf(w, "  t=%-10d %-12s %s->%s\n",
				uint64(ev.When), o.CompName(ev.Comp), o.stateStr(from), o.stateStr(to)); err != nil {
				return err
			}
		}
	}
	return nil
}
