package oltp

import (
	"math"
	"sync"
	"testing"
)

func TestNewZipfSharesOneGenerator(t *testing.T) {
	a, b := NewZipf(1<<12, 0.8), NewZipf(1<<12, 0.8)
	if a != b {
		t.Fatal("repeated NewZipf(n, theta) calls returned different generators")
	}
	if c := NewZipf(1<<12, 0.7); c == a {
		t.Fatal("a different theta returned the same generator")
	}
	if c := NewZipf(1<<11, 0.8); c == a {
		t.Fatal("a different n returned the same generator")
	}
}

// The shared generator's constants must be exactly what an unshared,
// term-by-term preparation gives, so sharing cannot move a single draw.
func TestNewZipfConstantsMatchNaiveSum(t *testing.T) {
	for _, c := range []struct {
		n     uint64
		theta float64
	}{{1, 0.5}, {2, 0.99}, {1000, 0}, {1 << 16, 0.9}, {1 << 20, 0.99}} {
		var zetan float64
		for i := uint64(1); i <= c.n; i++ {
			zetan += math.Pow(float64(i), -c.theta)
		}
		zeta2 := 1.0
		if c.n >= 2 {
			zeta2 += math.Pow(2, -c.theta)
		}
		eta := (1 - math.Pow(2/float64(c.n), 1-c.theta)) / (1 - zeta2/zetan)
		thresh := 1 + math.Pow(0.5, c.theta)

		z := NewZipf(c.n, c.theta)
		same := func(got, want float64) bool {
			return math.Float64bits(got) == math.Float64bits(want)
		}
		if !same(z.zetan, zetan) || !same(z.eta, eta) || !same(z.thresh, thresh) {
			t.Fatalf("NewZipf(%d, %v): zetan/eta/thresh = %v/%v/%v, naive sum gives %v/%v/%v",
				c.n, c.theta, z.zetan, z.eta, z.thresh, zetan, eta, thresh)
		}
	}
}

// Concurrent first callers of one (n, theta) — two cell workers setting
// up the same skew at once — must all get the one generator.
func TestNewZipfConcurrentFirstCalls(t *testing.T) {
	const goroutines = 8
	const n, theta = 1<<16 + 7, 0.42
	got := make([]*Zipf, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = NewZipf(n, theta)
		}()
	}
	close(start)
	wg.Wait()
	for i, z := range got {
		if z != got[0] {
			t.Fatalf("goroutine %d got generator %p, goroutine 0 got %p", i, z, got[0])
		}
	}
}
