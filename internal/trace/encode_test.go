package trace

import (
	"bufio"
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

func randomBlock(rng *rand.Rand, n int) Block {
	var out Block
	for i := 0; i < n; i++ {
		a := Access{
			Thread: rng.Intn(3),
			Ins:    Ins(rng.Uint32()),
			Addr:   0x10000 + uint64(rng.Intn(1<<20)),
			Size:   uint8(rng.Intn(8) + 1),
			Atomic: rng.Intn(8) == 0,
			Marked: rng.Intn(8) == 0,
			Stack:  rng.Intn(8) == 0,
			RCU:    rng.Intn(8) == 0,
		}
		a.Val = rng.Uint64() & ((1 << (8 * uint(a.Size))) - 1)
		if a.Kind = Read; rng.Intn(2) == 0 {
			a.Kind = Write
		}
		out.Append(a)
	}
	return out
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 20; round++ {
		accs := randomBlock(rng, rng.Intn(200))
		var buf bytes.Buffer
		if err := Encode(&buf, &accs); err != nil {
			t.Fatal(err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != accs.Len() {
			t.Fatalf("round %d: %d != %d", round, got.Len(), accs.Len())
		}
		for i := 0; i < accs.Len(); i++ {
			w, g := accs.At(i), got.At(i)
			if w != g {
				t.Fatalf("round %d access %d:\nwant %+v\ngot  %+v", round, i, w, g)
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("SBTR\x01\x00"), // old version
		[]byte("SBTR\x03\x00"), // unknown version
		[]byte("SBTR\x02\x05"), // truncated records
		[]byte("SBTR\x02\xff\xff\xff\xff\xff\xff\xff\xff\x7f"), // absurd count
	}
	for i, c := range cases {
		if _, err := Decode(bytes.NewReader(c)); err == nil {
			t.Fatalf("case %d decoded", i)
		}
	}
}

func TestDecodeRejectsBadSize(t *testing.T) {
	accs := BlockOf(Access{Addr: 0x100, Size: 8, Val: 1})
	var buf bytes.Buffer
	if err := Encode(&buf, &accs); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Corrupt the size byte (it follows flags+thread+ins+addr).
	idx := bytes.LastIndexByte(raw, 8)
	raw[idx] = 99
	if _, err := Decode(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupted size accepted")
	}
}

func TestDecodeRejectsHugeThread(t *testing.T) {
	// A thread id above the 16-bit packed-meta limit must be rejected, not
	// silently truncated into another thread's identity.
	var buf bytes.Buffer
	buf.WriteString("SBTR\x02")
	buf.WriteByte(1)                    // count
	buf.WriteByte(0)                    // flags
	buf.Write([]byte{0x80, 0x80, 0x08}) // thread uvarint = 0x20000
	buf.WriteByte(0x01)                 // ins
	buf.WriteByte(0x02)                 // addr delta
	buf.WriteByte(8)                    // size
	buf.WriteByte(0x00)                 // val
	if _, err := Decode(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("oversized thread id accepted")
	}
}

func TestEncodeCompactness(t *testing.T) {
	// Spatially clustered accesses (the common case) must encode far
	// smaller than the naive 40+ bytes per record.
	var accs Block
	for i := 0; i < 1000; i++ {
		accs.Append(Access{
			Ins:  Ins(0x1234),
			Addr: 0x100000 + uint64(i%64)*8,
			Size: 8,
			Val:  uint64(i % 7),
		})
	}
	var buf bytes.Buffer
	if err := Encode(&buf, &accs); err != nil {
		t.Fatal(err)
	}
	perRecord := float64(buf.Len()) / float64(accs.Len())
	if perRecord > 16 {
		t.Fatalf("encoding too fat: %.1f bytes/record", perRecord)
	}
	if !strings.HasPrefix(buf.String(), "SBTR") {
		t.Fatal("magic missing")
	}
}

// TestReadBlockVersion1Records pins the bare record stream across the
// version 1 -> 2 change: a record without a held-lock list decodes to the
// same access, and one carrying a list (flag bit 5) is rejected instead of
// misread.
func TestReadBlockVersion1Records(t *testing.T) {
	record := func(flags byte, tail ...byte) []byte {
		// count=1 | flags | thread=1 | ins=0x21 | addr delta=+0x40 | size=4 | val=7
		return append([]byte{1, flags, 1, 0x21, 0x80, 0x01, 4, 7}, tail...)
	}
	b, err := ReadBlock(bufio.NewReader(bytes.NewReader(record(fKindWrite | fMarked))))
	if err != nil {
		t.Fatal(err)
	}
	want := Access{Thread: 1, Ins: 0x21, Kind: Write, Addr: 0x40, Size: 4, Val: 7, Marked: true}
	if b.Len() != 1 || b.At(0) != want {
		t.Fatalf("v1 record without locks: got %+v want %+v", b.Accesses(), want)
	}
	// Bit 5 followed by a one-entry lock list (delta 0x100).
	withLocks := record(fKindWrite|1<<5, 1, 0x80, 0x04)
	if _, err := ReadBlock(bufio.NewReader(bytes.NewReader(withLocks))); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("v1 record with a lock list: err = %v, want ErrBadTrace", err)
	}
}
