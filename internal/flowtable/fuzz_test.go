package flowtable

import (
	"encoding/binary"
	"slices"
	"testing"

	"mafic/internal/sim"
)

// FuzzTablesOps drives the SFT/NFT/PDT state machine with an arbitrary
// operation stream under a tiny capacity bound and checks the structural
// invariants the MAFIC engine relies on: Lookup agrees with the entry's own
// State, the per-table counts agree with what ForEachEntry visits, no table
// ever exceeds its capacity, and after every operation the checkpoint
// restores into fresh tables that hold the same entries in the same order.
func FuzzTablesOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{
		0, 1, 0, 0, 0, 0, 0, 0, 0, // insert suspicious #1
		2, 1, 0, 0, 0, 0, 0, 0, 0, // promote #1
		1, 1, 0, 0, 0, 0, 0, 0, 0, // force #1 into the PDT
		4, 0, 0, 0, 0, 0, 0, 0, 0, // flush
	})
	f.Add([]byte{
		0, 1, 0, 0, 0, 0, 0, 0, 0,
		0, 2, 0, 0, 0, 0, 0, 0, 0,
		0, 3, 0, 0, 0, 0, 0, 0, 0,
		0, 4, 0, 0, 0, 0, 0, 0, 0, // overflows capacity 3: evicts
		3, 2, 0, 0, 0, 0, 0, 0, 0, // condemn #2
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const capacity = 3
		tables := New(capacity)
		now := sim.Time(0)

		checkInvariants := func() {
			t.Helper()
			sft, nft, pdt := tables.Sizes()
			if sft > capacity || nft > capacity || pdt > capacity {
				t.Fatalf("capacity exceeded: sft=%d nft=%d pdt=%d cap=%d", sft, nft, pdt, capacity)
			}
			var counts [4]int
			tables.ForEachEntry(func(e *Entry) {
				counts[e.State]++
				entry, got := tables.Lookup(e.LabelHash)
				if entry != e || got != e.State {
					t.Fatalf("Lookup(%#x) = (%v, %v), ForEachEntry visits %v in %v", e.LabelHash, entry, got, e, e.State)
				}
			})
			if counts != [4]int{0, sft, nft, pdt} {
				t.Fatalf("ForEachEntry visits %v per state, Sizes reports %d/%d/%d", counts, sft, nft, pdt)
			}

			var st TablesState
			tables.CheckpointState(&st)
			restored := New(capacity)
			if err := restored.RestoreState(st); err != nil {
				t.Fatalf("restore of a checkpoint: %v", err)
			}
			var want, got []Entry
			tables.ForEachEntry(func(e *Entry) { want = append(want, *e) })
			restored.ForEachEntry(func(e *Entry) { got = append(got, *e) })
			if !slices.Equal(want, got) {
				t.Fatalf("restored entries differ:\n got %+v\nwant %+v", got, want)
			}
			if s, n, p := restored.Sizes(); s != sft || n != nft || p != pdt {
				t.Fatalf("restored sizes %d/%d/%d, want %d/%d/%d", s, n, p, sft, nft, pdt)
			}
		}

		for len(ops) >= 9 {
			op := ops[0]
			hash := binary.LittleEndian.Uint64(ops[1:9])
			ops = ops[9:]
			now += sim.Millisecond

			switch op % 6 {
			case 0:
				e := tables.InsertSuspicious(hash, now, now+10*sim.Millisecond)
				if e == nil {
					t.Fatal("InsertSuspicious returned nil")
				}
			case 1:
				e := tables.InsertPermanent(hash, now)
				if e == nil {
					t.Fatal("InsertPermanent returned nil")
				}
				if e.State != StatePermanentDrop {
					t.Fatalf("InsertPermanent left state %v", e.State)
				}
			case 2:
				if e, state := tables.Lookup(hash); state == StateSuspicious {
					tables.Promote(e)
					if e.State != StateNice {
						t.Fatalf("Promote left state %v", e.State)
					}
				} else {
					tables.Promote(e) // no-op on non-SFT entries, must not corrupt
				}
			case 3:
				if e, state := tables.Lookup(hash); state == StateSuspicious {
					tables.Condemn(e)
					if e.State != StatePermanentDrop {
						t.Fatalf("Condemn left state %v", e.State)
					}
				} else {
					tables.Condemn(e)
				}
			case 4:
				tables.Flush()
				if sft, nft, pdt := tables.Sizes(); sft+nft+pdt != 0 {
					t.Fatal("Flush left entries behind")
				}
			case 5:
				// Only lets time pass; the selector keeps its modulus so
				// that existing inputs keep their meaning.
			}
			checkInvariants()
		}
	})
}
