package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Compact binary serialization for traces and profiles, used to ship
// profiling output between pipeline stages and across the distributed
// queue. The format is delta/varint coded: traces are dominated by
// near-monotonic sequence numbers and spatially clustered addresses, so
// zig-zag deltas shrink them by roughly an order of magnitude compared to
// fixed-width records.
//
// Layout:
//
//	magic "SBTR" | version u8 | count uvarint | records...
//
// Each record:
//
//	flags u8            bit0 kind=write, bit1 atomic, bit2 marked,
//	                    bit3 stack, bit4 rcu; other bits are malformed
//	thread uvarint
//	ins    uvarint      (absolute; ids are hash-derived, deltas don't help)
//	addr   svarint      (delta from previous record's addr)
//	size   u8
//	val    uvarint
//
// Version 1 records could carry a held-lock list behind flag bit 5;
// version 2 dropped it, so such a record is rejected rather than misread.

const (
	encMagic   = "SBTR"
	encVersion = 2
)

// CodecVersion identifies the trace record encoding, including the bare
// block form embedded in profile-set artifacts; stage digests mix it in so
// a format change invalidates stored artifacts instead of misdecoding them.
const CodecVersion = encVersion

// ErrBadTrace reports a malformed serialized trace.
var ErrBadTrace = errors.New("trace: malformed encoding")

const (
	fKindWrite = 1 << iota
	fAtomic
	fMarked
	fStack
	fRCU

	fKnown = fKindWrite | fAtomic | fMarked | fStack | fRCU
)

// Encode writes the block's accesses to w in the compact format.
func Encode(w io.Writer, b *Block) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(encMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(encVersion); err != nil {
		return err
	}
	if err := WriteBlock(bw, b); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteBlock writes the bare record stream (count + delta/varint records,
// no magic or version) to bw. It is the embeddable form of Encode: larger
// artifact formats — profile sets, store artifacts — frame several blocks
// inside their own envelope. The caller owns flushing bw.
func WriteBlock(bw *bufio.Writer, b *Block) error {
	var scratch [binary.MaxVarintLen64]byte
	putU := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	putS := func(v int64) error {
		n := binary.PutVarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	if err := putU(uint64(b.Len())); err != nil {
		return err
	}
	prevAddr := uint64(0)
	for i := 0; i < b.Len(); i++ {
		m := b.meta[i]
		var flags byte
		if m&metaWrite != 0 {
			flags |= fKindWrite
		}
		if m&metaAtomic != 0 {
			flags |= fAtomic
		}
		if m&metaMarked != 0 {
			flags |= fMarked
		}
		if m&metaStack != 0 {
			flags |= fStack
		}
		if m&metaRCU != 0 {
			flags |= fRCU
		}
		if err := bw.WriteByte(flags); err != nil {
			return err
		}
		if err := putU(uint64(m >> metaThreadShift)); err != nil {
			return err
		}
		if err := putU(uint64(b.ins[i])); err != nil {
			return err
		}
		if err := putS(int64(b.addrs[i]) - int64(prevAddr)); err != nil {
			return err
		}
		prevAddr = b.addrs[i]
		if err := bw.WriteByte(byte(m & metaSizeMask)); err != nil {
			return err
		}
		if err := putU(b.vals[i]); err != nil {
			return err
		}
	}
	return nil
}

// Decode parses a compact trace. Sequence numbers are implicit in order.
func Decode(r io.Reader) (Block, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return Block{}, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if string(magic[:]) != encMagic {
		return Block{}, fmt.Errorf("%w: bad magic %q", ErrBadTrace, magic)
	}
	ver, err := br.ReadByte()
	if err != nil || ver != encVersion {
		return Block{}, fmt.Errorf("%w: version %d", ErrBadTrace, ver)
	}
	return ReadBlock(br)
}

// ReadBlock parses one bare record stream written by WriteBlock, leaving br
// positioned after the block's last record. Decoding errors never panic;
// any malformed input yields an error wrapping ErrBadTrace.
func ReadBlock(br *bufio.Reader) (Block, error) {
	var out Block
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return out, fmt.Errorf("%w: count: %v", ErrBadTrace, err)
	}
	const sanityMax = 1 << 28
	if count > sanityMax {
		return out, fmt.Errorf("%w: implausible count %d", ErrBadTrace, count)
	}
	// The claimed count is untrusted until records actually arrive: clamp
	// the preallocation so a short hostile input can't demand gigabytes.
	capHint := count
	if capHint > 4096 {
		capHint = 4096
	}
	out.ins = make([]Ins, 0, capHint)
	out.addrs = make([]uint64, 0, capHint)
	out.vals = make([]uint64, 0, capHint)
	out.meta = make([]uint32, 0, capHint)
	prevAddr := uint64(0)
	for i := uint64(0); i < count; i++ {
		flags, err := br.ReadByte()
		if err != nil {
			return out, fmt.Errorf("%w: flags: %v", ErrBadTrace, err)
		}
		if flags&^fKnown != 0 {
			return out, fmt.Errorf("%w: unknown flags %#x", ErrBadTrace, flags)
		}
		th, err := binary.ReadUvarint(br)
		if err != nil {
			return out, fmt.Errorf("%w: thread: %v", ErrBadTrace, err)
		}
		if th > maxThread {
			return out, fmt.Errorf("%w: thread %d", ErrBadTrace, th)
		}
		ins, err := binary.ReadUvarint(br)
		if err != nil {
			return out, fmt.Errorf("%w: ins: %v", ErrBadTrace, err)
		}
		dAddr, err := binary.ReadVarint(br)
		if err != nil {
			return out, fmt.Errorf("%w: addr: %v", ErrBadTrace, err)
		}
		addr := uint64(int64(prevAddr) + dAddr)
		prevAddr = addr
		size, err := br.ReadByte()
		if err != nil {
			return out, fmt.Errorf("%w: size: %v", ErrBadTrace, err)
		}
		if size == 0 || size > 8 {
			return out, fmt.Errorf("%w: size %d", ErrBadTrace, size)
		}
		val, err := binary.ReadUvarint(br)
		if err != nil {
			return out, fmt.Errorf("%w: val: %v", ErrBadTrace, err)
		}
		var kind Kind
		if flags&fKindWrite != 0 {
			kind = Write
		}
		out.ins = append(out.ins, Ins(ins))
		out.addrs = append(out.addrs, addr)
		out.vals = append(out.vals, val)
		out.meta = append(out.meta, packMeta(int(th), kind, size, flags&fAtomic != 0, flags&fMarked != 0, flags&fStack != 0, flags&fRCU != 0))
	}
	return out, nil
}
