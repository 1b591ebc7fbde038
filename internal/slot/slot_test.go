package slot

import "testing"

// TestIDRoundTrip: an ID names its slot and generation, and generation 0
// numbers slots 1, 2, 3, ….
func TestIDRoundTrip(t *testing.T) {
	for _, c := range []struct {
		s   int
		gen uint32
	}{{0, 0}, {1, 0}, {7, 3}, {1<<Bits - 1, 0}, {5, 1<<(31-Bits) - 1}} {
		id := ID(c.s, c.gen)
		if s, gen := Of(id); s != c.s || gen != c.gen {
			t.Errorf("Of(ID(%d, %d) = %d) = %d, %d", c.s, c.gen, id, s, gen)
		}
		if c.gen == 0 && id != c.s+1 {
			t.Errorf("ID(%d, 0) = %d, want %d", c.s, id, c.s+1)
		}
	}
	if id := ID(5, 1<<(31-Bits)-1); id > 1<<31-1 {
		t.Errorf("ID %d of the last generation that fits 31 bits does not", id)
	}
}

// TestFreeReusesOnlyAFullTable: Take hands out fresh slots while the
// table has them, then the slot freed longest ago; Unget gives a slot
// back unnumbered; Widen doubles a table from 8.
func TestFreeReusesOnlyAFullTable(t *testing.T) {
	var f Free
	var table []int
	take := func() int {
		k := f.Take(len(table))
		table = Widen(table, k)
		return k
	}
	for want := 0; want < 8; want++ {
		if k := take(); k != want {
			t.Fatalf("fresh take %d = %d", want, k)
		}
	}
	if len(table) != 8 {
		t.Fatalf("table is %d long, want 8", len(table))
	}
	f.Put(5)
	f.Put(2)
	if k := take(); k != 5 {
		t.Fatalf("a full table reused %d, want 5, freed first", k)
	}
	if k := take(); k != 2 {
		t.Fatalf("then %d, want 2", k)
	}
	if k := take(); k != 8 || len(table) != 16 {
		t.Fatalf("with nothing freed: slot %d in a table of %d, want 8 in 16", k, len(table))
	}
	f.Put(3)
	if k := take(); k != 9 {
		t.Fatalf("a table with fresh slots reused: %d, want 9", k)
	}
	f.Unget(9)
	if k := take(); k != 9 {
		t.Fatalf("after Unget the next take is %d, want 9 again", k)
	}
	if n := Held([]*int{nil, new(int), nil, new(int)}); n != 2 {
		t.Fatalf("Held = %d, want 2", n)
	}
}
