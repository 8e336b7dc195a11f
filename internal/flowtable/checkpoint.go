package flowtable

import (
	"cmp"
	"fmt"
	"slices"
)

// TablesState is the dynamic state of one Tables: every tracked entry
// verbatim (generation counters included, so outstanding probe-record
// liveness checks keep working across a restore) plus the cumulative
// statistics. Capacity is rebuild-covered.
type TablesState struct {
	Entries     []Entry
	Evictions   uint64
	Transitions [statePermanentDropIdx + 1]uint64
}

// ForEachEntry visits every tracked entry in deterministic order — SFT, NFT,
// PDT, each ascending by label hash — so capture output does not depend on
// map iteration order. The sort scratch is kept on the tables between calls.
func (t *Tables) ForEachEntry(fn func(e *Entry)) {
	es := t.scratch[:0]
	for _, e := range t.index {
		es = append(es, e)
	}
	slices.SortFunc(es, func(a, b *Entry) int {
		return cmp.Or(cmp.Compare(a.State, b.State), cmp.Compare(a.LabelHash, b.LabelHash))
	})
	for _, e := range es {
		fn(e)
	}
	t.scratch = es
}

// CheckpointState captures the tables' dynamic state into dst, reusing dst's
// entry backing.
func (t *Tables) CheckpointState(dst *TablesState) {
	dst.Evictions = t.evictions
	dst.Transitions = t.transitions
	dst.Entries = dst.Entries[:0]
	t.ForEachEntry(func(e *Entry) { dst.Entries = append(dst.Entries, *e) })
}

// RestoreState flushes the rebuilt tables and re-inserts the captured
// entries verbatim, Gen included: a probe record captured as live binds to
// its restored entry with matching generations, and the next flush or
// eviction still invalidates it through the usual bump. A flow listed twice
// is refused: no run puts one flow in two tables.
func (t *Tables) RestoreState(st TablesState) error {
	t.Flush()
	for i := range st.Entries {
		rec := &st.Entries[i]
		if rec.State < StateSuspicious || rec.State > StatePermanentDrop {
			return fmt.Errorf("flowtable: restore entry %x has invalid state %d", rec.LabelHash, rec.State)
		}
		if t.index[rec.LabelHash] != nil {
			return fmt.Errorf("flowtable: restore entry %x is listed twice", rec.LabelHash)
		}
		e := t.get()
		*e = *rec
		t.index[rec.LabelHash] = e
		t.sizes[rec.State]++
	}
	t.evictions = st.Evictions
	t.transitions = st.Transitions
	return nil
}
