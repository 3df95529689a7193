package trace

import (
	"testing"

	"lard/internal/config"
)

// BenchmarkTraceGen measures per-op trace generation cost through the
// chunked Fill API the simulator uses (one Op buffer reused across refills,
// so steady-state generation is alloc-free).
func BenchmarkTraceGen(b *testing.B) {
	cfg := config.Small()
	p, err := ProfileByName("BARNES")
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]Op, 256)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for n < b.N {
		w := Generate(p, cfg, 1.0, 42)
		for _, s := range w.Streams {
			for n < b.N {
				got := s.Fill(buf)
				if got == 0 {
					break
				}
				n += got
			}
		}
	}
}

// BenchmarkTapeReplay measures the per-op cost of replaying a recorded
// workload through the same chunked Fill the simulator uses — what each
// campaign simulation pays for its trace once its row's tape is recorded,
// against BenchmarkTraceGen's synthesis cost.
func BenchmarkTapeReplay(b *testing.B) {
	cfg := config.Small()
	p, err := ProfileByName("BARNES")
	if err != nil {
		b.Fatal(err)
	}
	tape := Record(p, cfg, 1.0, 42)
	buf := make([]Op, 256)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for n < b.N {
		for c := range tape.streams {
			r := tape.Replay(c)
			for n < b.N {
				got := r.Fill(buf)
				if got == 0 {
					break
				}
				n += got
			}
		}
	}
}
