package flowtable

import (
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
// map iteration order. The hash scratch is kept on the tables between calls.
func (t *Tables) ForEachEntry(fn func(e *Entry)) {
	for _, m := range [3]map[uint64]*Entry{t.sft, t.nft, t.pdt} {
		hashes := t.hashScratch[:0]
		for h := range m {
			hashes = append(hashes, h)
		}
		slices.Sort(hashes)
		for _, h := range hashes {
			fn(m[h])
		}
		t.hashScratch = hashes
	}
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
// eviction still invalidates it through the usual bump.
func (t *Tables) RestoreState(st TablesState) error {
	t.Flush()
	for i := range st.Entries {
		rec := &st.Entries[i]
		e := t.get()
		*e = *rec
		switch rec.State {
		case StateSuspicious:
			t.sft[rec.LabelHash] = e
		case StateNice:
			t.nft[rec.LabelHash] = e
		case StatePermanentDrop:
			t.pdt[rec.LabelHash] = e
		default:
			t.put(e)
			return fmt.Errorf("flowtable: restore entry %x has invalid state %d", rec.LabelHash, rec.State)
		}
	}
	t.evictions = st.Evictions
	t.transitions = st.Transitions
	return nil
}

// CheckpointTypes lists this package's structs that carry snapshotted state.
var CheckpointTypes = []any{
	Tables{},
	Entry{},
}
