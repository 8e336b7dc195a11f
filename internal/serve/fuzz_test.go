package serve

import (
	"bytes"
	"errors"
	"testing"

	"mafic/internal/sim"
)

// FuzzJobSpec feeds arbitrary bytes through the submission path up to the
// point a job would be queued: the POST /jobs decoder, then BuildScenario. No
// body may panic either, a rejected spec must wrap ErrBadRequest (the HTTP
// layer's 400; anything else would read as a 500), and an accepted one must be
// a scenario the engine's own validation passes, with a snapshot interval that
// is 0 or inside [minCheckpointEvery, sim.Horizon).
func FuzzJobSpec(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"scenario":"table2","quick":true,"durationMs":1000}`))
	f.Add([]byte(`{"scenario":"stress-50k","quick":true,"hardened":true,"seed":-7,"defense":"proportional"}`))
	f.Add([]byte(`{"scenario":"table2","pd":0.9,"flows":40,"tcpShare":0.5,"rate":1e6,"routers":12,"checkpointEveryMs":10}`))
	f.Add([]byte(`{"quick":true}`))
	f.Add([]byte(`{"scenario":"no-such-scenario"}`))
	f.Add([]byte(`{"scenario":"table2","defense":"magic"}`))
	f.Add([]byte(`{"scenario":"table2","durationMs":-5,"checkpointEveryMs":-1}`))
	f.Add([]byte(`{"scenario":"table2","durationMs":1e300,"rate":1e-300,"routers":-1,"flows":2147483647}`))
	f.Add([]byte(`{"scenario":"table2","bogusField":1}`))
	f.Add([]byte(`{"scenario":"table2"}{"scenario":"nope"}`))
	f.Add([]byte(`{"scenario":"table2"} trailing garbage`))
	f.Add([]byte(`{"scenario":"table2","quick":true,"checkpointEveryMs":1e300}`))
	f.Add([]byte(`{"scenario":"table2","quick":true,"checkpointEveryMs":0.001}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		s, err := spec.BuildScenario()
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("rejection does not wrap ErrBadRequest: %v", err)
			}
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("BuildScenario accepted a scenario that does not validate: %v", err)
		}
		every, err := spec.checkpointEvery(0)
		if err != nil {
			t.Fatalf("BuildScenario accepted a snapshot interval attempt refuses: %v", err)
		}
		if every != 0 && (every < minCheckpointEvery || every >= sim.Horizon) {
			t.Fatalf("accepted snapshot interval %v is neither 0 nor in [%v, %v)", every, minCheckpointEvery, sim.Horizon)
		}
	})
}
