package engine

import "testing"

func tr(v float64) []float64 { return []float64{v} }

func TestCompStoreBasic(t *testing.T) {
	var s compStore
	s.reset(4, 8)
	if s.get(3) != nil || s.get(4) != nil || s.get(8) != nil {
		t.Fatal("fresh store must be empty")
	}
	s.set(4, tr(1))
	s.set(7, tr(2))
	if got := s.get(4); got == nil || got[0] != 1 {
		t.Fatalf("get(4) = %v", got)
	}
	if got := s.get(7); got == nil || got[0] != 2 {
		t.Fatalf("get(7) = %v", got)
	}
	s.del(4)
	if s.get(4) != nil {
		t.Fatal("del(4) did not clear the slot")
	}
	s.del(100) // out of window: no-op, no panic
}

func TestCompStoreGrowBothSides(t *testing.T) {
	var s compStore
	s.reset(10, 12)
	s.set(10, tr(10))
	s.set(11, tr(11))
	// grow left past the window, one position at a time (an LB stream)
	for j := 9; j >= 0; j-- {
		s.set(j, tr(float64(j)))
	}
	// grow right likewise
	for j := 12; j < 24; j++ {
		s.set(j, tr(float64(j)))
	}
	for j := 0; j < 24; j++ {
		got := s.get(j)
		if got == nil || got[0] != float64(j) {
			t.Fatalf("get(%d) = %v after growth", j, got)
		}
	}
}

func TestCompStoreZeroValueSet(t *testing.T) {
	var s compStore
	s.set(5, tr(5))
	if got := s.get(5); got == nil || got[0] != 5 {
		t.Fatalf("get(5) = %v on zero-value store", got)
	}
	s.set(3, tr(3))
	s.set(9, tr(9))
	for _, j := range []int{3, 5, 9} {
		if got := s.get(j); got == nil || got[0] != float64(j) {
			t.Fatalf("get(%d) = %v", j, got)
		}
	}
}

func TestCompStorePruneAndSwap(t *testing.T) {
	var a, b compStore
	a.reset(0, 6)
	b.reset(0, 6)
	for j := 0; j < 6; j++ {
		a.set(j, tr(float64(j)))
		b.set(j, tr(float64(j)+100))
	}
	a.swap(&b, 2)
	if a.get(2)[0] != 102 || b.get(2)[0] != 2 {
		t.Fatalf("swap failed: a=%v b=%v", a.get(2), b.get(2))
	}
	a.prune(2, 4)
	for j := 0; j < 6; j++ {
		got := a.get(j)
		if j >= 2 && j < 4 {
			if got == nil {
				t.Fatalf("prune cleared in-range position %d", j)
			}
		} else if got != nil {
			t.Fatalf("prune kept out-of-range position %d", j)
		}
	}
}

func TestCompStoreResetReuses(t *testing.T) {
	var s compStore
	s.reset(0, 8)
	for j := 0; j < 8; j++ {
		s.set(j, tr(float64(j)))
	}
	s.reset(2, 6)
	for j := 2; j < 6; j++ {
		if s.get(j) != nil {
			t.Fatalf("reset left stale data at %d", j)
		}
	}
}

// TestCompStoreSameCounts pins rule a of DESIGN §4.2 where it is enforced:
// a count is raised by setSame alone, follows its slot through a re-base, is
// left alone by swap, and falls to 0 with every other write to the slot.
func TestCompStoreSameCounts(t *testing.T) {
	var s, scratch compStore
	s.reset(10, 14)
	scratch.reset(10, 14)
	for j := 10; j < 14; j++ {
		s.set(j, tr(float64(j)))
		scratch.set(j, tr(0))
		s.setSame(j, j)
	}
	if s.sameAt(9) != 0 || s.sameAt(14) != 0 {
		t.Fatal("a position outside the window has a count")
	}
	s.set(2, tr(2))   // re-base to the left
	s.set(30, tr(30)) // and to the right
	for j := 10; j < 14; j++ {
		if got := s.sameAt(j); got != j {
			t.Fatalf("sameAt(%d) = %d after growth, want %d", j, got, j)
		}
	}
	if s.sameAt(2) != 0 || s.sameAt(30) != 0 {
		t.Fatal("a freshly stored trajectory has a count")
	}
	s.swap(&scratch, 11)
	if got := s.sameAt(11); got != 11 {
		t.Fatalf("swap moved the count: sameAt(11) = %d", got)
	}
	for _, w := range []struct {
		what  string
		write func()
		j     int
	}{
		{"set", func() { s.set(10, tr(-1)) }, 10},
		{"del", func() { s.del(11) }, 11},
		{"prune", func() { s.prune(10, 13) }, 13},
	} {
		w.write()
		if got := s.sameAt(w.j); got != 0 {
			t.Errorf("sameAt(%d) = %d after %s rewrote the slot, want 0", w.j, got, w.what)
		}
	}
	if got := s.sameAt(12); got != 12 {
		t.Errorf("a position nothing rewrote: sameAt(12) = %d", got)
	}
	s.set(13, tr(13))
	s.setSame(13, 1)
	s.reset(10, 14)
	if got := s.sameAt(13); got != 0 {
		t.Errorf("reset kept a count: sameAt(13) = %d", got)
	}
}
