// Package flowtable implements the three per-ATR flow tables MAFIC keeps
// (paper Section III-B): the Suspicious Flow Table (SFT) for flows under
// probing, the Nice Flow Table (NFT) for flows that backed off after the
// probe, and the Permanently Drop Table (PDT) for flows whose packets are
// dropped unconditionally.
//
// To minimise storage overhead the tables store only a 64-bit hash of each
// flow's 4-tuple label, exactly as the paper describes, plus the small amount
// of per-flow state the probing logic needs.
package flowtable

import (
	"cmp"
	"slices"

	"mafic/internal/sim"
)

// State identifies which table a flow currently lives in.
type State int

// Flow states. A flow not present in any table is Unknown. The tracked
// states count up in SFT, NFT, PDT order, which is the order ForEachEntry
// visits them in.
const (
	StateUnknown State = iota
	StateSuspicious
	StateNice
	StatePermanentDrop
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateSuspicious:
		return "SFT"
	case StateNice:
		return "NFT"
	case StatePermanentDrop:
		return "PDT"
	default:
		return "unknown"
	}
}

// Entry is the per-flow record kept while a flow is tracked. All fields are
// maintained by the owning table; the MAFIC engine reads and updates the
// probing counters directly.
type Entry struct {
	// LabelHash is the hashed 4-tuple identifying the flow.
	LabelHash uint64
	// State is the table the entry currently belongs to.
	State State
	// Gen counts how many times this slab slot has been recycled. Holders
	// of long-lived *Entry references (the MAFIC engine's scheduled probe
	// and classification events) capture Gen at reference time and treat a
	// mismatch as "this flow is gone": the slot may already describe a
	// different flow.
	Gen uint32

	// FirstSeen is when the flow was first inserted.
	FirstSeen sim.Time
	// LastSeen is the arrival time of the flow's most recent packet.
	LastSeen sim.Time
	// ProbeStart is when the probing window opened (SFT entries only).
	ProbeStart sim.Time
	// ProbeDeadline is when the probing window closes (2×RTT after
	// ProbeStart for the default configuration).
	ProbeDeadline sim.Time

	// BaselineCount counts packet arrivals in the probing window before the
	// probe goes out (ProbeDelayRTTs after ProbeStart); ResponseCount counts
	// arrivals after it. Comparing the two tells MAFIC whether the source
	// backed off.
	BaselineCount int
	// ResponseCount counts packet arrivals between the probe and
	// ProbeDeadline.
	ResponseCount int
	// Packets counts every arrival attributed to the flow while tracked.
	Packets uint64
	// Dropped counts the flow's packets this ATR has dropped.
	Dropped uint64
}

// entryChunk is how many entries one slab allocation carves.
const entryChunk = 64

// Tables bundles the SFT, NFT and PDT with capacity bounds and statistics.
// It is a passive data structure: timing decisions belong to the caller.
//
// The three tables share one index: an entry's State is the table it is in,
// and sizes counts each table's entries. Entries are slab-allocated in chunks
// and recycled through a free list when a flow is evicted or the tables are
// flushed, so steady-state flow churn inserts without allocating. Recycling
// bumps Entry.Gen; see Entry.
type Tables struct {
	index map[uint64]*Entry
	sizes [statePermanentDropIdx + 1]int

	// capacity bounds each table; zero means unbounded.
	capacity int

	// slab is the tail of the current chunk still to be carved; free holds
	// recycled entries, reused LIFO.
	slab []Entry
	free []*Entry

	// scratch is ForEachEntry's sort buffer, kept between checkpoint
	// captures; it carries no run state.
	scratch []*Entry

	// evictions counts entries discarded because a table was full.
	evictions uint64
	// transitions counts state moves, indexed by destination state.
	transitions [statePermanentDropIdx + 1]uint64
}

// statePermanentDropIdx bounds the transitions array.
const statePermanentDropIdx = int(StatePermanentDrop)

// New returns empty tables. capacity bounds each individual table; zero or
// negative means unbounded.
func New(capacity int) *Tables {
	if capacity < 0 {
		capacity = 0
	}
	return &Tables{index: make(map[uint64]*Entry), capacity: capacity}
}

// SetCapacity adjusts the per-table bound for subsequent inserts; zero or
// negative means unbounded. Existing entries are never evicted eagerly.
func (t *Tables) SetCapacity(capacity int) {
	if capacity < 0 {
		capacity = 0
	}
	t.capacity = capacity
}

// get returns a blank entry from the free list or the slab. Every field
// except Gen is zero.
func (t *Tables) get() *Entry {
	if n := len(t.free); n > 0 {
		e := t.free[n-1]
		t.free = t.free[:n-1]
		return e
	}
	if len(t.slab) == 0 {
		t.slab = make([]Entry, entryChunk)
		// With the free list empty every entry carved so far is indexed.
		// Room for those and the new chunk lets Flush and eviction recycle
		// every entry without growing the list, so a run that carves
		// nothing allocates nothing here.
		t.free = slices.Grow(t.free, len(t.index)+entryChunk)
	}
	e := &t.slab[0]
	t.slab = t.slab[1:]
	return e
}

// put recycles an entry. The generation bump invalidates every outstanding
// reference to the old occupant.
func (t *Tables) put(e *Entry) {
	*e = Entry{Gen: e.Gen + 1}
	t.free = append(t.free, e)
}

// Lookup returns the entry for the hashed label and the table it lives in.
// It returns (nil, StateUnknown) for untracked flows.
func (t *Tables) Lookup(labelHash uint64) (*Entry, State) {
	if e := t.index[labelHash]; e != nil {
		return e, e.State
	}
	return nil, StateUnknown
}

// InsertSuspicious creates an SFT entry for a newly probed flow. If the flow
// is already tracked anywhere the existing entry is returned unchanged.
func (t *Tables) InsertSuspicious(labelHash uint64, now, deadline sim.Time) *Entry {
	if e, state := t.Lookup(labelHash); state != StateUnknown {
		return e
	}
	e := t.insert(labelHash, StateSuspicious, now)
	e.ProbeStart, e.ProbeDeadline = now, deadline
	return e
}

// InsertPermanent places a flow directly into the PDT (used for illegal or
// unreachable source addresses). If the flow is tracked elsewhere it is
// moved.
func (t *Tables) InsertPermanent(labelHash uint64, now sim.Time) *Entry {
	if e, state := t.Lookup(labelHash); state != StateUnknown {
		if state != StatePermanentDrop {
			t.move(e, StatePermanentDrop)
		}
		return e
	}
	return t.insert(labelHash, StatePermanentDrop, now)
}

// insert files a new entry for an untracked flow in the given table.
func (t *Tables) insert(labelHash uint64, state State, now sim.Time) *Entry {
	t.makeRoom(state)
	e := t.get()
	e.LabelHash, e.State = labelHash, state
	e.FirstSeen, e.LastSeen = now, now
	t.index[labelHash] = e
	t.sizes[state]++
	t.transitions[state]++
	return e
}

// Promote moves an SFT entry to the NFT (the flow responded to the probe).
func (t *Tables) Promote(e *Entry) {
	if e == nil || e.State != StateSuspicious {
		return
	}
	t.move(e, StateNice)
}

// Condemn moves an SFT entry to the PDT (the flow ignored the probe).
func (t *Tables) Condemn(e *Entry) {
	if e == nil || e.State != StateSuspicious {
		return
	}
	t.move(e, StatePermanentDrop)
}

// Demote returns an NFT entry to the SFT for a fresh probing cycle, resetting
// the probe-window bookkeeping while keeping the flow's lifetime counters.
// The hardened defender uses it to re-probe a "nice" flow whose arrival
// pattern has turned suspicious again (e.g. a long silent gap consistent with
// a rotating attack source).
func (t *Tables) Demote(e *Entry, now, deadline sim.Time) {
	if e == nil || e.State != StateNice {
		return
	}
	e.ProbeStart, e.ProbeDeadline = now, deadline
	e.BaselineCount, e.ResponseCount = 0, 0
	t.move(e, StateSuspicious)
}

// move transfers an entry to another table.
func (t *Tables) move(e *Entry, to State) {
	t.sizes[e.State]--
	t.makeRoom(to)
	t.sizes[to]++
	e.State = to
	t.transitions[to]++
}

// makeRoom evicts the least recently seen entry of the given table when it
// is at capacity, the lowest label hash among equals.
func (t *Tables) makeRoom(table State) {
	if t.capacity <= 0 || t.sizes[table] < t.capacity {
		return
	}
	var victim *Entry
	for _, e := range t.index {
		if e.State == table && (victim == nil ||
			cmp.Or(cmp.Compare(e.LastSeen, victim.LastSeen), cmp.Compare(e.LabelHash, victim.LabelHash)) < 0) {
			victim = e
		}
	}
	delete(t.index, victim.LabelHash)
	t.sizes[table]--
	t.put(victim)
	t.evictions++
}

// Reset returns the tables to their just-constructed state, keeping their
// storage: every entry is flushed, the recycled entries' generations start
// from zero again, and the cumulative eviction and transition counters are
// zeroed. The next owner observes nothing of the previous run, not even
// through Entry.Gen in a snapshot. Call it only once nothing holds an entry.
func (t *Tables) Reset() {
	t.Flush()
	for _, e := range t.free {
		e.Gen = 0
	}
	*t = Tables{index: t.index, capacity: t.capacity, slab: t.slab, free: t.free, scratch: t.scratch}
}

// Flush clears every table, as MAFIC does when it switches victims and before
// a restore. Entries return to the free list; the index keeps its storage so
// reactivation does not reallocate.
func (t *Tables) Flush() {
	for _, e := range t.index {
		t.put(e)
	}
	clear(t.index)
	t.sizes = [statePermanentDropIdx + 1]int{}
}

// Sizes reports the number of entries in the SFT, NFT and PDT.
func (t *Tables) Sizes() (sft, nft, pdt int) {
	return t.sizes[StateSuspicious], t.sizes[StateNice], t.sizes[StatePermanentDrop]
}

// Evictions reports how many entries were discarded due to capacity limits.
func (t *Tables) Evictions() uint64 { return t.evictions }

// Transitions reports how many entries have entered the given state.
func (t *Tables) Transitions(to State) uint64 {
	if to < 0 || int(to) > statePermanentDropIdx {
		return 0
	}
	return t.transitions[to]
}
