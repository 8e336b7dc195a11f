package traffic

import (
	"testing"

	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// TestWorkloadTranslation pins how Workload.Reset turns a spec into attack
// senders, flow by flow: the kind, the rate (R times the flow's rate-mix
// multiplier), the gate (onFor, every, offset), the forged source by index —
// unroutable first, then a bystander's address, then the zombie's own — and
// the source port.
func TestWorkloadTranslation(t *testing.T) {
	const ms = sim.Millisecond
	type gate struct{ onFor, every, offset sim.Time }
	tests := []struct {
		name string
		edit func(*WorkloadSpec)
		kind FlowKind
		rate func(i int) float64
		gate func(i int) gate
	}{
		{
			name: "constant flood",
			edit: func(*WorkloadSpec) {},
			kind: FlowAttack,
			rate: func(int) float64 { return 5000 },
			gate: func(int) gate { return gate{} },
		},
		{
			name: "pulse, duty cycle zero means 0.2",
			edit: func(s *WorkloadSpec) { s.AttackPulsePeriod = 500 * ms },
			kind: FlowPulsing,
			rate: func(int) float64 { return 5000 },
			gate: func(int) gate { return gate{100 * ms, 500 * ms, 0} },
		},
		{
			name: "pulse with a duty cycle",
			edit: func(s *WorkloadSpec) { s.AttackPulsePeriod, s.AttackDutyCycle = sim.Second, 0.3 },
			kind: FlowPulsing,
			rate: func(int) float64 { return 5000 },
			gate: func(int) gate { return gate{300 * ms, sim.Second, 0} },
		},
		{
			name: "3-group rotation with a rate mix",
			edit: func(s *WorkloadSpec) {
				s.AttackGroups, s.AttackRotationPeriod = 3, 100*ms
				s.AttackRateMix = []float64{0.5, 2}
			},
			kind: FlowRotating,
			rate: func(i int) float64 { return []float64{2500, 10000}[i%2] },
			gate: func(i int) gate { return gate{100 * ms, 300 * ms, sim.Time(i%3) * 100 * ms} },
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := testDomain(t)
			spec := DefaultWorkloadSpec()
			spec.TotalFlows = 40
			spec.TCPShare = 0.5 // 20 attack flows: 4 unroutable, 10 bystanders', 6 own
			tt.edit(&spec)
			w, err := BuildWorkload(spec, d, sim.NewRNG(7))
			if err != nil {
				t.Fatal(err)
			}
			if len(w.Attack) != 20 {
				t.Fatalf("built %d attack flows, want 20", len(w.Attack))
			}
			for i, f := range w.Attack {
				p := f.(*PacedSource)
				id := 20 + i
				var src netsim.IP
				switch {
				case i < 4:
					src = netsim.IP(0x01000000 | uint32(id+1))
				case i < 14:
					src = d.Bystanders[i%len(d.Bystanders)].PrimaryIP()
				default:
					src = d.Zombies[i%len(d.Zombies)].PrimaryIP()
				}
				if p.st.Kind != tt.kind || p.ID() != id {
					t.Fatalf("flow %d: kind %d id %d, want %d and %d", i, p.st.Kind, p.ID(), tt.kind, id)
				}
				if p.cfg.rate != tt.rate(i) {
					t.Fatalf("flow %d: rate %v, want %v", i, p.cfg.rate, tt.rate(i))
				}
				if g := (gate{p.cfg.onFor, p.cfg.every, p.cfg.offset}); g != tt.gate(i) {
					t.Fatalf("flow %d: gate %+v, want %+v", i, g, tt.gate(i))
				}
				if want := flowLabel(src, d.VictimIP(), uint16(10000+id)); p.Label() != want {
					t.Fatalf("flow %d: label %v, want %v", i, p.Label(), want)
				}
				if p.host != d.Zombies[i%len(d.Zombies)] || p.cfg.size != spec.PacketSize {
					t.Fatalf("flow %d: on host %v with %d-byte packets", i, p.host.PrimaryIP(), p.cfg.size)
				}
				// A gated sender idles at rate zero until its gate opens.
				want := tt.rate(i)
				if p.gated() {
					want = 0
				}
				if p.CurrentRate() != want {
					t.Fatalf("flow %d: current rate before the start %v, want %v", i, p.CurrentRate(), want)
				}
			}
		})
	}
}
