package triage

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzBundleDecode throws arbitrary bytes at the SBRB decoder, the only
// bundle input sbrepro takes from a user's disk: Decode must never panic,
// must classify every rejection as stale or corrupt, and every bundle it
// accepts must re-encode to a fixed point — Encode(Decode(x)) decodes and
// re-encodes to the same bytes.
func FuzzBundleDecode(f *testing.F) {
	real, err := Encode(testBundle(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	// The retired JSON repro-bundle shape: format 1 like SBRB, but with
	// "version" instead of "kernel" and no crash signature.
	f.Add([]byte(`{"format":1,"version":"5.12-rc3","writer":{"calls":[{"nr":0,"args":[{"k":0,"v":24}]}]},` +
		`"reader":{"calls":[{"nr":10,"args":[{"k":0,"v":4}]}]},"state":{"seed":7,"trial":22},"finding":"null deref","bug_id":12}`))
	f.Add([]byte(`{"format":1}`))
	f.Add([]byte("\x00\xff garbage \x7f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrStale) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		enc, err := Encode(b)
		if err != nil {
			t.Fatalf("accepted bundle does not re-encode: %v", err)
		}
		b2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded bundle does not decode: %v", err)
		}
		enc2, err := Encode(b2)
		if err != nil {
			t.Fatalf("re-decoded bundle does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("Encode(Decode(x)) is not a fixed point:\n%s\nvs\n%s", enc, enc2)
		}
	})
}
