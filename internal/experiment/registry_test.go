package experiment

import "testing"

func TestRegistryCatalogSize(t *testing.T) {
	// The catalog must offer the paper's default operating point plus at
	// least five adversarial workloads.
	entries := Entries()
	if len(entries) < 6 {
		t.Fatalf("catalog has %d scenarios, want >= 6", len(entries))
	}
	for _, name := range []string{"table2", "carpet-bombing", "coremelt", "flash-overlap"} {
		if _, ok := LookupScenario(name); !ok {
			t.Fatalf("%s scenario missing from the catalog", name)
		}
	}
}

func TestRegistryEntriesBuildAndValidate(t *testing.T) {
	for _, e := range Entries() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			if e.Description == "" {
				t.Fatal("entry has no description")
			}
			s := e.Build()
			if s.Name != e.Name {
				t.Fatalf("scenario name %q != registry name %q", s.Name, e.Name)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("full scenario invalid: %v", err)
			}
			if err := Quick(s).Validate(); err != nil {
				t.Fatalf("quick scenario invalid: %v", err)
			}
		})
	}
}

func TestRegistryBuildReturnsFreshScenarios(t *testing.T) {
	e, ok := LookupScenario("rolling-pulse")
	if !ok {
		t.Fatal("rolling-pulse missing")
	}
	a := e.Build()
	a.Workload.TotalFlows = 1
	a.Workload.AttackRateMix = append(a.Workload.AttackRateMix, 99)
	b := e.Build()
	if b.Workload.TotalFlows == 1 {
		t.Fatal("Build returned a shared scenario: mutation leaked")
	}
	for _, m := range b.Workload.AttackRateMix {
		if m == 99 {
			t.Fatal("Build returned a shared rate mix slice")
		}
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	entries := Entries()
	for i, e := range entries {
		if i > 0 && entries[i-1].Name >= e.Name {
			t.Fatalf("names not sorted or not unique: %q then %q", entries[i-1].Name, e.Name)
		}
		if got, ok := LookupScenario(e.Name); !ok || got.Name != e.Name {
			t.Fatalf("LookupScenario(%q) = %q, %v", e.Name, got.Name, ok)
		}
	}
	if _, ok := LookupScenario("no-such-scenario"); ok {
		t.Fatal("LookupScenario found a name the catalog does not have")
	}
}

// TestRegisterRejectsBadEntries checks the catalog for what registration used
// to refuse: an empty or repeated name, a missing builder, and a builder whose
// scenario carries another name than its entry.
func TestRegisterRejectsBadEntries(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range catalog {
		switch {
		case e.Name == "":
			t.Fatal("a catalog entry has no name")
		case seen[e.Name]:
			t.Fatalf("scenario %q is in the catalog twice", e.Name)
		case e.Build == nil:
			t.Fatalf("scenario %q has no builder", e.Name)
		case e.Build().Name != e.Name:
			t.Fatalf("scenario %q builds a scenario named %q", e.Name, e.Build().Name)
		}
		seen[e.Name] = true
	}
}

func TestQuickScenarioRunsEveryEntry(t *testing.T) {
	for _, e := range Entries() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(Quick(e.Build()))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !res.Activated {
				t.Fatal("defense never activated")
			}
			if res.EventsProcessed == 0 {
				t.Fatal("no events processed")
			}
			if res.Counts.ATRAttackPost == 0 {
				t.Fatal("no attack packets observed post-activation")
			}
		})
	}
}
