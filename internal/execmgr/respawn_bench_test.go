package execmgr

import (
	"testing"

	"closurex/internal/vm"
)

// BenchmarkClosureXRespawn times one ClosureX exec whose input crashes,
// so every iteration pays a respawn, on a 1,600-page image (the size of
// md4c and bsdtar, the largest targets).
func BenchmarkClosureXRespawn(b *testing.B) {
	m := buildModule(b, statefulSrc, true)
	cx, err := NewClosureX(Config{Module: m, Options: vm.Options{ImagePages: 1600, DeterministicRand: true}})
	if err != nil {
		b.Fatal(err)
	}
	defer cx.Close()
	crash := []byte("C")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := cx.Execute(crash); !res.Crashed() {
			b.Fatalf("exec %d did not crash: %+v", i, res)
		}
	}
	b.StopTimer()
	if cx.Spawns() != int64(b.N)+1 {
		b.Fatalf("Spawns = %d, want %d", cx.Spawns(), b.N+1)
	}
}
