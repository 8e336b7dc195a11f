package netsim

import (
	"fmt"
	"testing"

	"mafic/internal/sim"
)

type nopFilter struct{ name string }

func (f nopFilter) Name() string                             { return f.name }
func (f nopFilter) Handle(*Packet, sim.Time, *Router) Action { return ActionForward }

// TestAttachManyFilters guards the slab-carved filter chains: attaching more
// filters than one slab chunk holds must keep working (an early version
// panicked once a single chain outgrew the chunk), and the chain must keep
// its attachment order.
func TestAttachManyFilters(t *testing.T) {
	net := New(sim.NewScheduler(), sim.NewRNG(1))
	r := net.AddRouter()
	const n = 200
	for i := 0; i < n; i++ {
		r.AttachFilter(nopFilter{name: fmt.Sprintf("f%d", i)})
	}
	fs := r.Filters()
	if len(fs) != n {
		t.Fatalf("attached %d filters, chain has %d", n, len(fs))
	}
	for i, f := range fs {
		if f.Name() != fmt.Sprintf("f%d", i) {
			t.Fatalf("filter %d is %q, order lost", i, f.Name())
		}
	}
}
