package flowtable

import (
	"testing"
	"testing/quick"

	"mafic/internal/sim"
)

func TestStateString(t *testing.T) {
	tests := []struct {
		state State
		want  string
	}{
		{StateSuspicious, "SFT"},
		{StateNice, "NFT"},
		{StatePermanentDrop, "PDT"},
		{StateUnknown, "unknown"},
	}
	for _, tt := range tests {
		if got := tt.state.String(); got != tt.want {
			t.Fatalf("State(%d).String() = %q, want %q", tt.state, got, tt.want)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	tb := New(0)
	if e, state := tb.Lookup(42); e != nil || state != StateUnknown {
		t.Fatal("untracked flow should be unknown")
	}
}

func TestInsertSuspiciousAndLookup(t *testing.T) {
	tb := New(0)
	e := tb.InsertSuspicious(1, 100, 300)
	if e == nil || e.State != StateSuspicious {
		t.Fatal("InsertSuspicious did not create an SFT entry")
	}
	if e.ProbeStart != 100 || e.ProbeDeadline != 300 {
		t.Fatalf("probe window = [%v,%v], want [100,300]", e.ProbeStart, e.ProbeDeadline)
	}
	got, state := tb.Lookup(1)
	if got != e || state != StateSuspicious {
		t.Fatal("Lookup did not find the SFT entry")
	}
	// Re-inserting must not reset the existing entry.
	again := tb.InsertSuspicious(1, 999, 9999)
	if again != e || again.ProbeStart != 100 {
		t.Fatal("re-insertion must return the existing entry unchanged")
	}
	if tb.Transitions(StateSuspicious) != 1 {
		t.Fatalf("SFT transitions = %d, want 1", tb.Transitions(StateSuspicious))
	}
}

func TestPromoteAndCondemn(t *testing.T) {
	tb := New(0)
	nice := tb.InsertSuspicious(1, 0, 10)
	bad := tb.InsertSuspicious(2, 0, 10)

	tb.Promote(nice)
	tb.Condemn(bad)

	if _, state := tb.Lookup(1); state != StateNice {
		t.Fatal("promoted flow not in NFT")
	}
	if _, state := tb.Lookup(2); state != StatePermanentDrop {
		t.Fatal("condemned flow not in PDT")
	}
	sft, nft, pdt := tb.Sizes()
	if sft != 0 || nft != 1 || pdt != 1 {
		t.Fatalf("sizes = %d/%d/%d, want 0/1/1", sft, nft, pdt)
	}
	// Promote/Condemn only apply to SFT entries.
	tb.Promote(bad)
	if _, state := tb.Lookup(2); state != StatePermanentDrop {
		t.Fatal("Promote must not move a PDT entry")
	}
	tb.Condemn(nice)
	if _, state := tb.Lookup(1); state != StateNice {
		t.Fatal("Condemn must not move an NFT entry")
	}
	tb.Promote(nil)
	tb.Condemn(nil) // must not panic
}

func TestInsertPermanentDirect(t *testing.T) {
	tb := New(0)
	e := tb.InsertPermanent(7, 50)
	if e.State != StatePermanentDrop {
		t.Fatal("InsertPermanent did not create a PDT entry")
	}
	// Inserting a flow that is currently suspicious moves it.
	s := tb.InsertSuspicious(8, 0, 10)
	moved := tb.InsertPermanent(8, 60)
	if moved != s || moved.State != StatePermanentDrop {
		t.Fatal("InsertPermanent should move an existing SFT entry to the PDT")
	}
	// Idempotent for already-permanent flows.
	again := tb.InsertPermanent(7, 70)
	if again != e {
		t.Fatal("InsertPermanent should return the existing PDT entry")
	}
}

func TestFlush(t *testing.T) {
	tb := New(0)
	tb.InsertSuspicious(1, 0, 10)
	tb.Promote(tb.InsertSuspicious(2, 0, 10))
	tb.InsertPermanent(3, 0)
	tb.Flush()
	sft, nft, pdt := tb.Sizes()
	if sft+nft+pdt != 0 {
		t.Fatalf("Flush left %d/%d/%d entries", sft, nft, pdt)
	}
	if _, state := tb.Lookup(1); state != StateUnknown {
		t.Fatal("flushed flow still tracked")
	}
}

// TestFlushKeepsItsFreeList fills the tables with 1000 flows and flushes
// them twice: the free list has room for every entry from the moment the
// entry is carved, so no Flush grows it. When Flush grew it instead, the
// second run on a recycled bundle allocated the list (304 B on the quick
// carpet-bombing entry) where later runs allocated nothing.
func TestFlushKeepsItsFreeList(t *testing.T) {
	tab := New(0)
	fill := func() {
		for i := uint64(1); i <= 1000; i++ {
			tab.InsertSuspicious(i*0x9e3779b97f4a7c15, 0, 1)
		}
	}
	fill()
	carved := cap(tab.free)
	if carved < 1000 {
		t.Fatalf("1000 entries carved, free list capacity %d", carved)
	}
	for range 2 {
		tab.Flush()
		fill()
	}
	if got := cap(tab.free); got != carved {
		t.Errorf("flushing grew the free list from capacity %d to %d", carved, got)
	}
}

func TestCapacityEviction(t *testing.T) {
	tb := New(3)
	tb.InsertSuspicious(1, 10, 100)
	tb.InsertSuspicious(2, 20, 100)
	tb.InsertSuspicious(3, 30, 100)
	// Table full: inserting a fourth evicts the least recently seen (1).
	tb.InsertSuspicious(4, 40, 100)
	sft, _, _ := tb.Sizes()
	if sft != 3 {
		t.Fatalf("SFT size = %d, want 3", sft)
	}
	if _, state := tb.Lookup(1); state != StateUnknown {
		t.Fatal("oldest entry should have been evicted")
	}
	if tb.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", tb.Evictions())
	}
}

func TestNegativeCapacityMeansUnbounded(t *testing.T) {
	tb := New(-5)
	for i := uint64(0); i < 100; i++ {
		tb.InsertSuspicious(i, sim.Time(i), 1000)
	}
	sft, _, _ := tb.Sizes()
	if sft != 100 {
		t.Fatalf("SFT size = %d, want 100 (unbounded)", sft)
	}
	if tb.Evictions() != 0 {
		t.Fatal("unbounded table should not evict")
	}
}

// TestSingleResidencyProperty checks the core invariant that a flow is never
// present in more than one table, whatever sequence of operations runs.
func TestSingleResidencyProperty(t *testing.T) {
	type op struct {
		Kind  uint8
		Label uint64
	}
	prop := func(ops []op) bool {
		tb := New(8)
		now := sim.Time(0)
		for _, o := range ops {
			now += 10
			label := o.Label % 16 // force collisions between operations
			switch o.Kind % 4 {
			case 0:
				tb.InsertSuspicious(label, now, now+100)
			case 1:
				tb.InsertPermanent(label, now)
			case 2:
				if e, state := tb.Lookup(label); state == StateSuspicious {
					tb.Promote(e)
				}
			case 3:
				if e, state := tb.Lookup(label); state == StateSuspicious {
					tb.Condemn(e)
				}
			}
			// Invariant: lookup state matches the entry's own state.
			if e, state := tb.Lookup(label); e != nil && e.State != state {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEvictionTieBreaksByLabelHash pins the victim among equally stale
// entries: the lowest label hash, whatever order the index iterates in.
func TestEvictionTieBreaksByLabelHash(t *testing.T) {
	for i := 0; i < 64; i++ {
		tb := New(2)
		for h := uint64(1); h <= 3; h++ {
			tb.InsertSuspicious(h, 0, 100)
		}
		if _, state := tb.Lookup(1); state != StateUnknown {
			t.Fatalf("table %d: flow 1 survived, so another equally stale flow was evicted", i)
		}
		if tb.Evictions() != 1 {
			t.Fatalf("table %d: evictions = %d, want 1", i, tb.Evictions())
		}
	}
}

// TestRestoreRefusesDuplicateFlow checks that a checkpoint listing one flow
// twice is refused rather than restored into two tables at once.
func TestRestoreRefusesDuplicateFlow(t *testing.T) {
	tb := New(0)
	err := tb.RestoreState(TablesState{Entries: []Entry{
		{LabelHash: 7, State: StateSuspicious},
		{LabelHash: 7, State: StatePermanentDrop},
	}})
	if err == nil {
		sft, nft, pdt := tb.Sizes()
		t.Fatalf("restore accepted flow 7 twice: sizes %d/%d/%d", sft, nft, pdt)
	}
}

// TestResetRestartsGenerations checks that entries recycled by Reset start
// from generation zero again, as entries of brand-new tables do, so a
// recycled owner's snapshots do not depend on what ran before.
func TestResetRestartsGenerations(t *testing.T) {
	tb := New(0)
	tb.Promote(tb.InsertSuspicious(1, 0, 10))
	tb.InsertPermanent(2, 0)
	tb.Flush()
	tb.InsertSuspicious(3, 0, 10)
	tb.Reset()
	for h := uint64(1); h <= 3; h++ {
		if e := tb.InsertSuspicious(h, 0, 10); e.Gen != 0 {
			t.Fatalf("entry for flow %d after Reset has Gen %d, want 0", h, e.Gen)
		}
	}
}
