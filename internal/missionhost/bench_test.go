package missionhost

import (
	"fmt"
	"testing"
)

// BenchmarkMissionHost measures the two hot paths of the host: the
// shared worker pool ticking a fleet of missions (Round) and the
// lock-free watcher read path (Status on a mission's stored render).
func BenchmarkMissionHost(b *testing.B) {
	newBenchHost := func(b *testing.B, missions int) *Host {
		b.Helper()
		h, err := New(Config{TickBudget: 1, MaxLive: missions})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(h.Close)
		for i := 0; i < missions; i++ {
			spec := Spec{ID: fmt.Sprintf("b-%03d", i), Seed: int64(i + 1), UAVs: 2, Persons: 2, HorizonS: 3600}
			if _, err := h.Create(spec); err != nil {
				b.Fatal(err)
			}
		}
		return h
	}

	for _, n := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("Round/missions=%d", n), func(b *testing.B) {
			h := newBenchHost(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Round()
			}
		})
	}

	b.Run("Status/stored-render", func(b *testing.B) {
		h := newBenchHost(b, 4)
		h.Round()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := h.Status("b-000"); err != nil {
					b.Fatal(err)
				}
			}
		})
	})

	b.Run("Status/fanout", func(b *testing.B) {
		h := newBenchHost(b, 32)
		h.Round()
		ids := make([]string, 32)
		for i := range ids {
			ids[i] = fmt.Sprintf("b-%03d", i)
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			var i int
			for pb.Next() {
				if _, err := h.Status(ids[i%len(ids)]); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	})
}
