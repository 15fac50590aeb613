package trace

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestDefInsIdempotent(t *testing.T) {
	a := DefIns("test_fn:op_a")
	b := DefIns("test_fn:op_a")
	if a != b {
		t.Fatalf("same name produced different ids: %v vs %v", a, b)
	}
	if a.Name() != "test_fn:op_a" {
		t.Fatalf("name roundtrip failed: %q", a.Name())
	}
}

func TestDefInsDistinctNames(t *testing.T) {
	seen := make(map[Ins]string)
	for i := 0; i < 500; i++ {
		name := fmt.Sprintf("distinct_fn_%d:op", i)
		id := DefIns(name)
		if id == NoIns {
			t.Fatalf("NoIns assigned to %q", name)
		}
		if prev, dup := seen[id]; dup {
			t.Fatalf("id collision: %q and %q both %v", prev, name, id)
		}
		seen[id] = name
	}
}

func TestLookupIns(t *testing.T) {
	id := DefIns("lookup_fn:op")
	got, ok := LookupIns("lookup_fn:op")
	if !ok || got != id {
		t.Fatalf("lookup failed: %v %v", got, ok)
	}
	if _, ok := LookupIns("never_registered:op"); ok {
		t.Fatal("lookup of unregistered name succeeded")
	}
}

func TestUnregisteredInsName(t *testing.T) {
	// An Ins decoded from a foreign trace prints a stable placeholder.
	var foreign Ins = 0x12345
	if foreign.Name() == "" {
		t.Fatal("empty name for unregistered ins")
	}
}

func TestRegisteredInsSorted(t *testing.T) {
	DefIns("sorted_check:a")
	ids := RegisteredIns()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("RegisteredIns not strictly ascending at %d", i)
		}
	}
}

func TestKindString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Fatal("kind strings wrong")
	}
}

func TestOverlaps(t *testing.T) {
	cases := []struct {
		a, b Access
		want bool
	}{
		{Access{Addr: 0x100, Size: 8}, Access{Addr: 0x100, Size: 8}, true},
		{Access{Addr: 0x100, Size: 8}, Access{Addr: 0x107, Size: 1}, true},
		{Access{Addr: 0x100, Size: 8}, Access{Addr: 0x108, Size: 1}, false},
		{Access{Addr: 0x100, Size: 1}, Access{Addr: 0xff, Size: 2}, true},
		{Access{Addr: 0x100, Size: 1}, Access{Addr: 0xff, Size: 1}, false},
		{Access{Addr: 0x0, Size: 8}, Access{Addr: 0x4, Size: 8}, true},
	}
	for i, c := range cases {
		if got := c.a.Overlaps(&c.b); got != c.want {
			t.Errorf("case %d: Overlaps=%v want %v", i, got, c.want)
		}
		if got := c.b.Overlaps(&c.a); got != c.want {
			t.Errorf("case %d: Overlaps not symmetric", i)
		}
	}
}

func TestOverlapRange(t *testing.T) {
	a := Access{Addr: 0x100, Size: 8}
	b := Access{Addr: 0x104, Size: 8}
	lo, hi := a.OverlapRange(&b)
	if lo != 0x104 || hi != 0x108 {
		t.Fatalf("overlap [%#x,%#x), want [0x104,0x108)", lo, hi)
	}
}

func TestProjectVal(t *testing.T) {
	// 8-byte little-endian value 0x8877665544332211 at 0x100.
	a := Access{Addr: 0x100, Size: 8, Val: 0x8877665544332211}
	if got := a.ProjectVal(0x100, 0x108); got != a.Val {
		t.Fatalf("full projection %#x", got)
	}
	if got := a.ProjectVal(0x100, 0x101); got != 0x11 {
		t.Fatalf("first byte %#x", got)
	}
	if got := a.ProjectVal(0x107, 0x108); got != 0x88 {
		t.Fatalf("last byte %#x", got)
	}
	if got := a.ProjectVal(0x102, 0x104); got != 0x4433 {
		t.Fatalf("middle word %#x", got)
	}
}

func TestProjectValPanicsOutsideRange(t *testing.T) {
	a := Access{Addr: 0x100, Size: 4, Val: 1}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range projection")
		}
	}()
	a.ProjectVal(0x100, 0x105)
}

// TestProjectValAgainstBytes is a property test: projecting onto any
// subrange equals reassembling the little-endian bytes of that subrange.
func TestProjectValAgainstBytes(t *testing.T) {
	f := func(val uint64, sizeSeed, offSeed, lenSeed uint8) bool {
		size := int(sizeSeed%8) + 1
		a := Access{Addr: 0x1000, Size: uint8(size), Val: val & ((1 << (8 * uint(size))) - 1)}
		off := uint64(offSeed) % uint64(size)
		ln := uint64(lenSeed)%(uint64(size)-off) + 1
		lo, hi := a.Addr+off, a.Addr+off+ln
		got := a.ProjectVal(lo, hi)
		want := uint64(0)
		for i := uint64(0); i < ln; i++ {
			b := byte(a.Val >> (8 * (off + i)))
			want |= uint64(b) << (8 * i)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceAppendSeq(t *testing.T) {
	var tr Trace
	for i := 0; i < 5; i++ {
		tr.Append(Access{Addr: uint64(i)})
	}
	for i, a := range tr.Accesses() {
		if a.Seq != i {
			t.Fatalf("seq %d at index %d", a.Seq, i)
		}
	}
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestTraceByThread(t *testing.T) {
	var tr Trace
	tr.Append(Access{Thread: 0, Addr: 1})
	tr.Append(Access{Thread: 1, Addr: 2})
	tr.Append(Access{Thread: 0, Addr: 3})
	by := tr.ByThread()
	if len(by[0]) != 2 || len(by[1]) != 1 {
		t.Fatalf("split wrong: %v", by)
	}
	if by[0][1].Addr != 3 {
		t.Fatal("order not preserved")
	}
}

func TestStackRange(t *testing.T) {
	lo, hi := StackRange(0x10_3f80)
	if lo != 0x10_2000 || hi != 0x10_4000 {
		t.Fatalf("stack range [%#x,%#x)", lo, hi)
	}
	if !InStack(0x10_2000, 0x10_3f80) || InStack(0x10_4000, 0x10_3f80) {
		t.Fatal("InStack boundaries wrong")
	}
}

func TestStackRangeProperty(t *testing.T) {
	f := func(esp uint64) bool {
		lo, hi := StackRange(esp)
		return lo%StackSize == 0 && hi-lo == StackSize && esp >= lo && esp < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFilterThreadStackAtomic(t *testing.T) {
	var tr Trace
	tr.Append(Access{Thread: 0, Addr: 1})
	tr.Append(Access{Thread: 1, Addr: 2})
	tr.Append(Access{Thread: 0, Addr: 3, Stack: true})
	tr.Append(Access{Thread: 0, Addr: 4, Atomic: true})
	tr.Append(Access{Thread: 0, Addr: 5, Marked: true})

	got := DefaultFilter(0).Apply(&tr)
	if got.Len() != 2 || got.At(0).Addr != 1 || got.At(1).Addr != 5 {
		t.Fatalf("default filter kept %v", got.Accesses())
	}

	all := Filter{Thread: -1, KeepStack: true, KeepAtomics: true}.Apply(&tr)
	if all.Len() != 5 {
		t.Fatalf("permissive filter kept %d", all.Len())
	}

	capped := Filter{Thread: -1, KeepStack: true, KeepAtomics: true, MaxPerProfile: 2}.Apply(&tr)
	if capped.Len() != 2 {
		t.Fatalf("cap ignored: %d", capped.Len())
	}
}

func mkRead(ins Ins, addr uint64, size uint8, val uint64) Access {
	return Access{Ins: ins, Kind: Read, Addr: addr, Size: size, Val: val}
}

func mkWrite(ins Ins, addr uint64, size uint8, val uint64) Access {
	return Access{Ins: ins, Kind: Write, Addr: addr, Size: size, Val: val}
}

func TestMarkDoubleFetches(t *testing.T) {
	i1 := DefIns("df_test:first")
	i2 := DefIns("df_test:second")
	i3 := DefIns("df_test:writer")

	// Classic double fetch: two reads, different instructions, same value.
	accs := BlockOf(
		mkRead(i1, 0x100, 8, 42),
		mkRead(i2, 0x100, 8, 42),
	)
	df := MarkDoubleFetches(&accs)
	if !df[0] || df[1] {
		t.Fatalf("double fetch not marked on leader: %v", df)
	}

	// Intervening write kills the pairing.
	accs = BlockOf(
		mkRead(i1, 0x100, 8, 42),
		mkWrite(i3, 0x100, 8, 43),
		mkRead(i2, 0x100, 8, 43),
	)
	if df := MarkDoubleFetches(&accs); len(df) != 0 {
		t.Fatalf("marked despite intervening write: %v", df)
	}

	// Same instruction re-reading (a loop) is not a double fetch.
	accs = BlockOf(
		mkRead(i1, 0x100, 8, 42),
		mkRead(i1, 0x100, 8, 42),
	)
	if df := MarkDoubleFetches(&accs); len(df) != 0 {
		t.Fatalf("same-ins pair marked: %v", df)
	}

	// Different values on the shared range: not a double fetch.
	accs = BlockOf(
		mkRead(i1, 0x100, 8, 42),
		mkRead(i2, 0x100, 8, 99),
	)
	if df := MarkDoubleFetches(&accs); len(df) != 0 {
		t.Fatalf("different-value pair marked: %v", df)
	}

	// Partial overlap with matching projected bytes is a double fetch.
	accs = BlockOf(
		mkRead(i1, 0x100, 8, 0x1122334455667788),
		mkRead(i2, 0x104, 4, 0x11223344),
	)
	df = MarkDoubleFetches(&accs)
	if !df[0] {
		t.Fatalf("partial-overlap double fetch missed: %v", df)
	}
}
