package trace

import "fmt"

// Kind distinguishes read and write memory accesses.
type Kind uint8

const (
	// Read is a load from guest memory.
	Read Kind = iota
	// Write is a store to guest memory.
	Write
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == Read {
		return "R"
	}
	return "W"
}

// Access is one memory access performed by a simulated kernel thread. It
// carries exactly the features the paper's profiler records (§4.1: address
// range accessed, type of access, value read/written, and instruction
// address) plus the bookkeeping the detectors need (thread, sequence number,
// RCU section, atomicity, stack membership).
type Access struct {
	Thread int    // kernel thread (vCPU) that performed the access
	Seq    int    // position in the trial's global access order
	Ins    Ins    // static access site
	Kind   Kind   // Read or Write
	Addr   uint64 // start of the accessed range
	Size   uint8  // range length in bytes (1..8)
	Val    uint64 // value read or written, little-endian, low Size bytes
	Atomic bool   // lock-word access issued by a synchronization primitive
	Marked bool   // annotated access (READ_ONCE/WRITE_ONCE/rcu_dereference/rcu_assign_pointer)
	Stack  bool   // falls within the accessing thread's kernel stack
	RCU    bool   // performed inside an RCU read-side critical section
}

// End returns the first address past the accessed range.
func (a *Access) End() uint64 { return a.Addr + uint64(a.Size) }

// Overlaps reports whether the two access ranges share at least one byte.
func (a *Access) Overlaps(b *Access) bool {
	return a.Addr < b.End() && b.Addr < a.End()
}

// OverlapRange returns the intersection [lo, hi) of the two ranges, valid
// only when Overlaps is true.
func (a *Access) OverlapRange(b *Access) (lo, hi uint64) {
	return overlapRange(a.Addr, a.End(), b.Addr, b.End())
}

// overlapRange intersects [aLo, aHi) and [bLo, bHi).
func overlapRange(aLo, aHi, bLo, bHi uint64) (lo, hi uint64) {
	lo, hi = aLo, aHi
	if bLo > lo {
		lo = bLo
	}
	if bHi < hi {
		hi = bHi
	}
	return lo, hi
}

// ProjectVal projects the access's value onto the byte range [lo, hi),
// which must be contained in the access's own range. This is the
// project_value operation of Algorithm 1: when a read and a write overlap
// only partially, their values are compared on the shared bytes only.
func (a *Access) ProjectVal(lo, hi uint64) uint64 {
	if lo < a.Addr || hi > a.End() || lo >= hi {
		panic(fmt.Sprintf("trace: ProjectVal range [%#x,%#x) outside access [%#x,%#x)", lo, hi, a.Addr, a.End()))
	}
	return projectVal(a.Addr, a.Val, lo, hi)
}

// projectVal projects val (stored at addr) onto the byte range [lo, hi).
func projectVal(addr, val, lo, hi uint64) uint64 {
	shift := (lo - addr) * 8
	width := (hi - lo) * 8
	v := val >> shift
	if width < 64 {
		v &= (1 << width) - 1
	}
	return v
}

// String renders the access in the compact form used by reports and tests.
func (a *Access) String() string {
	return fmt.Sprintf("t%d %s %s [%#x+%d]=%#x", a.Thread, a.Kind, a.Ins.Name(), a.Addr, a.Size, a.Val)
}
