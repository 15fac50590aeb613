package store

import (
	"bytes"
	"reflect"
	"testing"

	"snowboard/internal/corpus"
	"snowboard/internal/pmc"
	"snowboard/internal/trace"
)

// FuzzStoreDecode throws arbitrary bytes at every artifact decoder the
// store's consumers use — the SBAR envelope itself plus the corpus,
// profile-set, and PMC-set codecs. The contract under test: hostile,
// truncated, or bit-flipped input yields an error, never a panic and never
// a silently wrong artifact; and anything a decoder does accept must
// round-trip (re-encode → re-decode → deep-equal), so a decode success is
// never a lie.
func FuzzStoreDecode(f *testing.F) {
	// Valid artifacts of each kind, enveloped and bare, seed the corpus so
	// the fuzzer starts from decodable inputs and mutates toward edge cases.
	c := corpus.NewCorpus()
	c.Add(&corpus.Prog{Calls: []corpus.Call{{Nr: 0, Args: []corpus.Arg{corpus.Const(7)}}}})
	var corpusBuf bytes.Buffer
	if err := corpus.EncodeCorpus(&corpusBuf, c); err != nil {
		f.Fatal(err)
	}
	// One empty profile and one with accesses, so the trace record decoder
	// (every flag bit, a thread id, address deltas both ways) is seeded too.
	profiles := []pmc.Profile{
		{TestID: 0, DFLeader: map[int]bool{}},
		{TestID: 3, Accesses: trace.BlockOf(
			trace.Access{Thread: 0, Ins: 0x11, Kind: trace.Write, Addr: 0x2000, Size: 8, Val: 0xdead, Marked: true},
			trace.Access{Thread: 1, Ins: 0x12, Kind: trace.Read, Addr: 0x1ff8, Size: 4, Val: 7, RCU: true},
			trace.Access{Thread: 1, Ins: 0x13, Kind: trace.Read, Addr: 0x1ff8, Size: 4, Val: 7},
			trace.Access{Thread: 2, Ins: 0x14, Kind: trace.Write, Addr: 0x40, Size: 8, Val: 1, Atomic: true},
			trace.Access{Thread: 2, Ins: 0x15, Kind: trace.Write, Addr: 0x7ff0, Size: 1, Val: 0xff, Stack: true},
		), DFLeader: map[int]bool{1: true}},
	}
	var profBuf bytes.Buffer
	if err := pmc.EncodeProfiles(&profBuf, profiles); err != nil {
		f.Fatal(err)
	}
	set := pmc.NewSet()
	set.Add(pmc.PMC{Write: pmc.Key{Ins: 1, Addr: 16, Size: 4, Val: 3},
		Read: pmc.Key{Ins: 2, Addr: 16, Size: 4, Val: 3}}, pmc.Pair{Writer: 0, Reader: 1})
	var setBuf bytes.Buffer
	if err := pmc.EncodeSet(&setBuf, set); err != nil {
		f.Fatal(err)
	}

	f.Add(envelope(KindCorpus, corpusBuf.Bytes()))
	f.Add(envelope(KindProfiles, profBuf.Bytes()))
	f.Add(envelope(KindPMCs, setBuf.Bytes()))
	f.Add(envelope(KindReport, []byte(`{"Method":"S-INS-PAIR"}`)))
	f.Add(corpusBuf.Bytes())
	f.Add(profBuf.Bytes())
	f.Add(setBuf.Bytes())
	f.Add([]byte("SBAR"))
	f.Add([]byte("SBAR\x01\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Add([]byte{})
	f.Add([]byte("\x00\xff garbage \x7f"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if kind, payload, err := DecodeEnvelope(data); err == nil {
			// A verified envelope must re-frame to its own bytes' semantics:
			// the payload checksum held, so re-enveloping decodes equal.
			k2, p2, err2 := DecodeEnvelope(envelope(kind, payload))
			if err2 != nil || k2 != kind || !bytes.Equal(p2, payload) {
				t.Fatalf("envelope not stable: %v", err2)
			}
		}
		if c, err := corpus.DecodeCorpus(bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if err := corpus.EncodeCorpus(&buf, c); err != nil {
				t.Fatalf("re-encode accepted corpus: %v", err)
			}
			c2, err := corpus.DecodeCorpus(bytes.NewReader(buf.Bytes()))
			if err != nil || !reflect.DeepEqual(c2.Progs, c.Progs) {
				t.Fatalf("corpus round-trip broken after accept: %v", err)
			}
		}
		if profs, err := pmc.DecodeProfiles(bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if err := pmc.EncodeProfiles(&buf, profs); err != nil {
				t.Fatalf("re-encode accepted profiles: %v", err)
			}
			p2, err := pmc.DecodeProfiles(bytes.NewReader(buf.Bytes()))
			if err != nil || !reflect.DeepEqual(p2, profs) {
				t.Fatalf("profiles round-trip broken after accept: %v", err)
			}
		}
		if s, err := pmc.DecodeSet(bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if err := pmc.EncodeSet(&buf, s); err != nil {
				t.Fatalf("re-encode accepted set: %v", err)
			}
			s2, err := pmc.DecodeSet(bytes.NewReader(buf.Bytes()))
			if err != nil || !reflect.DeepEqual(s2, s) {
				t.Fatalf("set round-trip broken after accept: %v", err)
			}
		}
	})
}
