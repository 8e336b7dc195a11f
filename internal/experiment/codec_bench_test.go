package experiment

import (
	"testing"

	"mafic/internal/checkpoint"
)

// codecBenchFiles are the two shapes a snapshot takes: full-size stress-1k at
// 90 % of its duration, the 200 KB file the benchmark's resume-late workload
// starts from, half packets in flight and sketch buckets; and quick stress-50k
// at the same point, 1.7 MB of which nearly all is 180 000 link and node
// records of one-byte fields — the most calls a byte that the codec sees.
var codecBenchFiles = []struct {
	name  string
	quick bool
}{{"stress-1k", false}, {"stress-50k", true}}

func forEachCodecFile(b *testing.B, fn func(b *testing.B, data []byte)) {
	for _, f := range codecBenchFiles {
		e, ok := LookupScenario(f.name)
		if !ok {
			b.Fatalf("%s not registered", f.name)
		}
		s := e.Build()
		if f.quick {
			s = Quick(s)
		}
		data, _ := snapshotMidRun(b, s, s.Duration*9/10)
		b.Run(f.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			fn(b, data)
		})
	}
}

var codecSink int

// BenchmarkCodecEncode and BenchmarkCodecDecode price the snapshot codec alone,
// where the benchmark's checkpoint.encode_ms / decode_ms price it inside a job:
//
//	go test ./internal/experiment -run '^$' -bench Codec -benchtime 1000x -cpu 1
func BenchmarkCodecEncode(b *testing.B) {
	forEachCodecFile(b, func(b *testing.B, data []byte) {
		snap, err := checkpoint.Decode(data)
		if err != nil {
			b.Fatalf("decode: %v", err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			codecSink += len(checkpoint.Encode(snap))
		}
	})
}

func BenchmarkCodecDecode(b *testing.B) {
	forEachCodecFile(b, func(b *testing.B, data []byte) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			snap, err := checkpoint.Decode(data)
			if err != nil {
				b.Fatalf("decode: %v", err)
			}
			codecSink += len(snap.Events)
		}
	})
}
