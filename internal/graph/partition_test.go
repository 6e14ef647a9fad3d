package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPartitioningBasic(t *testing.T) {
	p, err := NewPartitioning(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Parts() != 3 {
		t.Fatalf("Parts = %d, want 3", p.Parts())
	}
	total := 0
	for i := 0; i < 3; i++ {
		total += p.Size(i)
	}
	if total != 10 {
		t.Fatalf("partition sizes sum to %d, want 10", total)
	}
}

func TestPartitioningErrors(t *testing.T) {
	if _, err := NewPartitioning(10, 0); err == nil {
		t.Error("0 parts accepted")
	}
	if _, err := NewPartitioning(2, 5); err == nil {
		t.Error("more parts than vertices accepted")
	}
}

func TestPartitioningSinglePart(t *testing.T) {
	p, err := NewPartitioning(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []VertexID{0, 50, 99} {
		if p.PartOf(v) != 0 {
			t.Errorf("PartOf(%d) = %d, want 0", v, p.PartOf(v))
		}
	}
}

// Property: PartOf(v) is consistent with Range for all vertices, parts are
// contiguous, non-overlapping, cover the vertex space, and sizes differ by
// at most 1.
func TestPartitioningQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(500)
		parts := 1 + r.Intn(n)
		p, err := NewPartitioning(n, parts)
		if err != nil {
			return false
		}
		minSize, maxSize := n, 0
		covered := 0
		for i := 0; i < parts; i++ {
			lo, hi := p.Range(i)
			if int(hi)-int(lo) != p.Size(i) {
				return false
			}
			covered += p.Size(i)
			if p.Size(i) < minSize {
				minSize = p.Size(i)
			}
			if p.Size(i) > maxSize {
				maxSize = p.Size(i)
			}
			for v := lo; v < hi; v++ {
				if p.PartOf(v) != i {
					return false
				}
			}
		}
		return covered == n && maxSize-minSize <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
