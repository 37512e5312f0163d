package main

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// model is the oracle's view of every table: the generated rows plus
// the effects of every unit the federation reported as committed.
type model struct {
	mu     sync.Mutex
	tables map[string]*table // by db + "." + table name; rows are copies
	// aborts counts units that aborted and multitransactions that fell
	// back past their first acceptable state; each needs an injected
	// prepare refusal behind it.
	aborts int
}

func newModel(w *workload) *model {
	m := &model{tables: map[string]*table{}}
	for _, s := range w.sites {
		for _, t := range s.tables {
			c := *t
			c.rows = make([][]string, len(t.rows))
			for i, r := range t.rows {
				c.rows[i] = slices.Clone(r)
			}
			m.tables[s.db+"."+t.name] = &c
		}
	}
	return m
}

// rows returns the expected answer of a point read of r.
func (m *model) rows(r rowRef) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return []string{rowString(r.db, m.tables[r.db+"."+r.table].rows[r.id-1]...)}
}

// apply adds committed deltas and returns the bytes of the rows they
// changed.
func (m *model) apply(ds []delta) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, d := range ds {
		row := m.tables[d.db+"."+d.table].rows[d.id-1]
		row[2] = itoa(atoi(row[2]) + d.bal)
		row[3] = itoa(atoi(row[3]) + d.n)
		n += len(strings.Join(row, ""))
	}
	return n
}

// check verifies one op's outcome and folds its effects into the model.
// It returns the user bytes the op changed.
func (m *model) check(chk *checker, o *op, want []string, res *outcome, err error) int {
	if err != nil {
		chk.fail("%s op failed: %v\n%s", o.kind, err, o.script)
		return 0
	}
	switch o.kind {
	case "vital", "comp":
		switch res.state {
		case "success":
			return m.apply(o.writes)
		case "aborted":
			m.mu.Lock()
			m.aborts++
			m.mu.Unlock()
		default:
			chk.fail("%s unit ended %q\n%s", o.kind, res.state, o.script)
		}
		return 0
	case "multitx":
		if res.achieved < 0 || res.achieved >= len(o.alts) {
			if res.state != "failed" && res.state != "aborted" {
				chk.fail("multitransaction ended %q outside its acceptable states\n%s", res.state, o.script)
			}
			m.mu.Lock()
			m.aborts++
			m.mu.Unlock()
			return 0
		}
		if res.achieved > 0 {
			m.mu.Lock()
			m.aborts++
			m.mu.Unlock()
		}
		return m.apply(o.alts[res.achieved])
	}
	if want == nil {
		want = o.want
	}
	got := res.rows
	if o.kind == "join" {
		// A global query's answer comes from the coordinator database,
		// whichever site that is.
		got = make([]string, len(res.rows))
		for i, r := range res.rows {
			got[i] = r[strings.IndexByte(r, '|'):]
		}
	}
	if !slices.Equal(sortedCopy(got), sortedCopy(want)) {
		chk.fail("%s answer differs: got %d rows %v, want %d rows %v\n%s",
			o.kind, len(got), head(got), len(want), head(want), o.script)
	}
	return 0
}

func head(s []string) []string { return s[:min(len(s), 3)] }

// finalCheck compares every table of every site with the model: VITAL
// units all-or-nothing, each compensation applied exactly once, each
// multitransaction's effects exactly those of the acceptable state it
// reported. Aborts must not outnumber the prepare refusals injected.
func finalCheck(e *env, m *model, chk *checker) {
	for _, s := range e.w.sites {
		for _, t := range s.tables {
			got, err := e.dump(s.db, t.name)
			if err != nil {
				chk.fail("read back %s.%s: %v", s.db, t.name, err)
				continue
			}
			want := m.tables[s.db+"."+t.name].rows
			gs, ws := make([]string, len(got)), make([]string, len(want))
			for i, r := range got {
				gs[i] = strings.Join(r, "|")
			}
			for i, r := range want {
				ws[i] = strings.Join(r, "|")
			}
			gs, ws = sortedCopy(gs), sortedCopy(ws)
			if !slices.Equal(gs, ws) {
				chk.fail("final state of %s.%s differs from the model (%d rows, want %d)", s.db, t.name, len(gs), len(ws))
			}
		}
	}
	fired := 0
	for _, srv := range e.servers {
		fired += srv.Faults().Fired()
	}
	if m.aborts > fired {
		chk.fail("%d aborted or fallen-back units but only %d injected prepare refusals", m.aborts, fired)
	}
	fmt.Printf("state oracle: %d tables match the model; %d aborts/fallbacks, %d injected refusals\n",
		len(m.tables), m.aborts, fired)
}
