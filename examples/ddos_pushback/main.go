// DDoS pushback walkthrough: build the domain and defence by hand from the
// building blocks (rather than through the scenario runner) and narrate the
// full pipeline of the paper's Figure 1 — set-union counting at every
// router, victim detection, ATR identification, and MAFIC cutoff — while an
// attack with spoofed sources rages against the victim.
//
//	go run ./examples/ddos_pushback
package main

import (
	"fmt"
	"log"
	"sort"

	"mafic"
	"mafic/internal/netsim"
	"mafic/internal/pushback"
	"mafic/internal/sim"
	"mafic/internal/topology"
	"mafic/internal/traffic"
	"mafic/internal/trafficmatrix"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rng := sim.NewRNG(2025)
	sched := sim.NewScheduler()

	// 1. Build the protected domain: 24 routers, ingress edges, a victim
	//    server behind the last-hop router.
	topoCfg := topology.DefaultConfig()
	topoCfg.NumRouters = 24
	domain, err := topology.Build(topoCfg, sched, rng.Fork())
	if err != nil {
		return fmt.Errorf("build domain: %w", err)
	}
	fmt.Printf("domain: %d routers, %d ingress, victim %s behind %s\n",
		len(domain.Routers), len(domain.Ingress), domain.VictimIP(), domain.LastHop)

	// 2. Generate the traffic mix: 40 flows, 90% legitimate TCP, the rest
	//    zombies flooding at 5000 pkt/s with spoofed sources.
	spec := traffic.DefaultWorkloadSpec()
	spec.TotalFlows = 40
	spec.TCPShare = 0.90
	spec.AttackStart = 600 * sim.Millisecond
	workload, err := traffic.BuildWorkload(spec, domain, rng.Fork())
	if err != nil {
		return fmt.Errorf("build workload: %w", err)
	}
	fmt.Printf("workload: %d legitimate flows, %d attack flows\n",
		len(workload.Legitimate), len(workload.Attack))

	// 3. Attach a MAFIC defender to every ingress router; they stay
	//    dormant until the pushback request arrives.
	defenders := make(map[netsim.NodeID]*mafic.Defender, len(domain.Ingress))
	for _, ing := range domain.Ingress {
		d, derr := mafic.NewDefender(mafic.DefaultConfig(), ing, nil)
		if derr != nil {
			return derr
		}
		ing.AttachFilter(d)
		defenders[ing.ID()] = d
	}

	// 4. Set-union counting measurement layer plus the pushback
	//    coordinator that detects the victim and identifies ATRs. Once
	//    raised, the pushback request stays in force.
	pbCfg := pushback.DefaultConfig()
	pbCfg.MinHistoryEpochs = 4
	for _, ing := range domain.Ingress {
		pbCfg.Eligible = append(pbCfg.Eligible, ing.ID())
	}
	coordinator := pushback.NewCoordinator(pbCfg, func(req pushback.Request) {
		fmt.Printf("t=%.2fs  PUSHBACK: victim router %d overloaded (|Dj|≈%.0f pkt/epoch), %d ATRs identified\n",
			sched.Now().Seconds(), req.VictimRouter, req.VictimLoad, len(req.ATRs))
		sort.Slice(req.ATRs, func(i, j int) bool { return req.ATRs[i].Packets > req.ATRs[j].Packets })
		for _, atr := range req.ATRs {
			fmt.Printf("          ATR router %d carries ≈%.0f pkt/epoch (%.0f%% of victim load)\n",
				atr.Router, atr.Packets, atr.Share*100)
			if d, ok := defenders[atr.Router]; ok {
				d.Activate(domain.VictimIP())
			}
		}
	}, nil)
	monitor, err := trafficmatrix.NewMonitor(domain.Net, trafficmatrix.MonitorConfig{
		Epoch: 100 * sim.Millisecond,
	}, coordinator.HandleReport)
	if err != nil {
		return fmt.Errorf("monitor: %w", err)
	}
	monitor.Start()

	// 5. Run the attack scenario for three simulated seconds.
	workload.StartAll(spec, rng.Fork())
	if err := sched.RunUntil(3 * sim.Second); err != nil {
		return fmt.Errorf("run: %w", err)
	}

	// 6. Report what happened at each activated ATR.
	fmt.Println("\nper-ATR outcome:")
	var totalNice, totalCondemned, totalIllegal uint64
	for id, d := range defenders {
		if !d.Active() {
			continue
		}
		st := d.Stats()
		totalNice += st.FlowsNice
		totalCondemned += st.FlowsCondemned
		totalIllegal += st.FlowsIllegal
		fmt.Printf("  router %-3d examined=%-6d dropped=%-6d probes=%-3d flows nice=%d condemned=%d illegal=%d\n",
			id, st.Examined, st.Dropped, st.ProbesSent, st.FlowsNice, st.FlowsCondemned, st.FlowsIllegal)
	}
	fmt.Printf("\nflows classified nice=%d condemned=%d illegal-source=%d; victim received %d packets (%d attack)\n",
		totalNice, totalCondemned, totalIllegal, workload.Victim.Received(), workload.Victim.ReceivedMalicious())
	legitSent, attackSent := workload.PacketsSent()
	fmt.Printf("traffic sent: legitimate=%d attack=%d packets\n", legitSent, attackSent)
	return nil
}
