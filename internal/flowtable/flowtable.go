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
	"sort"

	"mafic/internal/sim"
)

// State identifies which table a flow currently lives in.
type State int

// Flow states. A flow not present in any table is Unknown.
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

	// BaselineCount counts packet arrivals in the first half of the
	// probing window; ResponseCount counts arrivals in the second half.
	// Comparing the two tells MAFIC whether the source backed off.
	BaselineCount int
	// ResponseCount counts packet arrivals in the second half of the
	// probing window.
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
// Entries are slab-allocated in chunks and recycled through a free list when
// a flow is evicted or the tables are flushed, so steady-state flow churn
// inserts without allocating. Recycling bumps Entry.Gen; see Entry.
type Tables struct {
	sft map[uint64]*Entry
	nft map[uint64]*Entry
	pdt map[uint64]*Entry

	// capacity bounds each table; zero means unbounded.
	capacity int

	// slab is the tail of the current chunk still to be carved; free holds
	// recycled entries, reused LIFO.
	slab []Entry
	free []*Entry

	// hashScratch is ForEachEntry's sort buffer, kept between checkpoint
	// captures; it carries no run state.
	hashScratch []uint64

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
	return &Tables{
		sft:      make(map[uint64]*Entry),
		nft:      make(map[uint64]*Entry),
		pdt:      make(map[uint64]*Entry),
		capacity: capacity,
	}
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
	if e, ok := t.pdt[labelHash]; ok {
		return e, StatePermanentDrop
	}
	if e, ok := t.nft[labelHash]; ok {
		return e, StateNice
	}
	if e, ok := t.sft[labelHash]; ok {
		return e, StateSuspicious
	}
	return nil, StateUnknown
}

// InsertSuspicious creates an SFT entry for a newly probed flow. If the flow
// is already tracked anywhere the existing entry is returned unchanged.
func (t *Tables) InsertSuspicious(labelHash uint64, now, deadline sim.Time) *Entry {
	if e, state := t.Lookup(labelHash); state != StateUnknown {
		return e
	}
	t.makeRoom(t.sft)
	e := t.get()
	e.LabelHash = labelHash
	e.State = StateSuspicious
	e.FirstSeen, e.LastSeen = now, now
	e.ProbeStart, e.ProbeDeadline = now, deadline
	t.sft[labelHash] = e
	t.transitions[StateSuspicious]++
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
	t.makeRoom(t.pdt)
	e := t.get()
	e.LabelHash = labelHash
	e.State = StatePermanentDrop
	e.FirstSeen, e.LastSeen = now, now
	t.pdt[labelHash] = e
	t.transitions[StatePermanentDrop]++
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

// move transfers an entry between tables and updates its state.
func (t *Tables) move(e *Entry, to State) {
	switch e.State {
	case StateSuspicious:
		delete(t.sft, e.LabelHash)
	case StateNice:
		delete(t.nft, e.LabelHash)
	case StatePermanentDrop:
		delete(t.pdt, e.LabelHash)
	}
	e.State = to
	switch to {
	case StateSuspicious:
		t.makeRoom(t.sft)
		t.sft[e.LabelHash] = e
	case StateNice:
		t.makeRoom(t.nft)
		t.nft[e.LabelHash] = e
	case StatePermanentDrop:
		t.makeRoom(t.pdt)
		t.pdt[e.LabelHash] = e
	}
	t.transitions[to]++
}

// makeRoom evicts the least recently seen entry when a table is at capacity.
func (t *Tables) makeRoom(table map[uint64]*Entry) {
	if t.capacity <= 0 || len(table) < t.capacity {
		return
	}
	var victim *Entry
	for _, e := range table {
		if victim == nil || e.LastSeen < victim.LastSeen {
			victim = e
		}
	}
	if victim != nil {
		delete(table, victim.LabelHash)
		t.put(victim)
		t.evictions++
	}
}

// Reset returns the tables to their just-constructed state: every entry is
// flushed and the cumulative eviction and transition counters are zeroed.
// Pools that recycle a Tables across owners use it so the next owner cannot
// observe a previous run's statistics.
func (t *Tables) Reset() {
	t.Flush()
	t.evictions = 0
	t.transitions = [statePermanentDropIdx + 1]uint64{}
}

// Flush clears every table, as MAFIC does when the victim withdraws the
// pushback request. Entries return to the free list; the maps keep their
// storage so reactivation does not reallocate.
func (t *Tables) Flush() {
	for _, e := range t.sft {
		t.put(e)
	}
	for _, e := range t.nft {
		t.put(e)
	}
	for _, e := range t.pdt {
		t.put(e)
	}
	clear(t.sft)
	clear(t.nft)
	clear(t.pdt)
}

// ExpiredSuspicious returns the SFT entries whose probing window has closed
// as of now, ordered by deadline. The MAFIC engine classifies them.
func (t *Tables) ExpiredSuspicious(now sim.Time) []*Entry {
	var out []*Entry
	for _, e := range t.sft {
		if now >= e.ProbeDeadline {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ProbeDeadline < out[j].ProbeDeadline })
	return out
}

// Range calls fn for every tracked flow with the table it lives in.
// Iteration order is unspecified. It is the allocation-free alternative to
// Snapshot for end-of-run accounting.
func (t *Tables) Range(fn func(labelHash uint64, state State)) {
	for h := range t.sft {
		fn(h, StateSuspicious)
	}
	for h := range t.nft {
		fn(h, StateNice)
	}
	for h := range t.pdt {
		fn(h, StatePermanentDrop)
	}
}

// Snapshot returns the state of every tracked flow keyed by label hash.
// It is used for end-of-run flow-level accounting (which legitimate flows
// were condemned, which attack flows slipped into the NFT).
func (t *Tables) Snapshot() map[uint64]State {
	out := make(map[uint64]State, len(t.sft)+len(t.nft)+len(t.pdt))
	for h := range t.sft {
		out[h] = StateSuspicious
	}
	for h := range t.nft {
		out[h] = StateNice
	}
	for h := range t.pdt {
		out[h] = StatePermanentDrop
	}
	return out
}

// Sizes reports the number of entries in the SFT, NFT and PDT.
func (t *Tables) Sizes() (sft, nft, pdt int) {
	return len(t.sft), len(t.nft), len(t.pdt)
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
