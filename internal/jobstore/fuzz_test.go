package jobstore

import (
	"bytes"
	"testing"
)

// FuzzWALRecord fuzzes both layers of the on-log format from both sides:
//
//   - Structured inputs (kind, id, payload) must round-trip through
//     Encode → AppendFrame → ReadFrame → decode bit-exactly.
//   - The same frame with any single byte flipped must be rejected by the
//     CRC, and any strict prefix must read as a clean truncation.
//   - Arbitrary bytes fed straight into ReadFrame/decode must never panic
//     or round-trip to different bytes.
func FuzzWALRecord(f *testing.F) {
	f.Add(uint8(KindAccepted), "job-000001", []byte(`{"experiment":"table2"}`))
	f.Add(uint8(KindState), "job-000042", []byte(`{"state":"running"}`))
	f.Add(uint8(KindEvent), "", []byte{})
	f.Add(uint8(KindResult), "j", bytes.Repeat([]byte{0xa5}, 300))
	f.Add(uint8(0), "raw", []byte{0, 1, 2, 0xff, 0xfe})

	f.Fuzz(func(t *testing.T, kind uint8, id string, payload []byte) {
		r := Record{Kind: Kind(kind), JobID: id, Payload: payload}
		body, err := r.Encode()
		if err == nil {
			framed := AppendFrame(nil, body)

			got, n, err := ReadFrame(framed)
			if err != nil {
				t.Fatalf("ReadFrame of fresh frame: %v", err)
			}
			if n != len(framed) || !bytes.Equal(got, body) {
				t.Fatalf("frame round trip: n=%d len=%d", n, len(framed))
			}
			dec, err := decode(got, nil)
			if err != nil {
				t.Fatalf("decode of fresh record: %v", err)
			}
			if dec.Kind != r.Kind || dec.JobID != r.JobID || !bytes.Equal(dec.Payload, r.Payload) {
				t.Fatalf("record round trip: got %+v want %+v", dec, r)
			}

			// Any strict prefix is a truncation, detected, no panic.
			for _, cut := range []int{0, 1, len(framed) / 2, len(framed) - 1} {
				if cut >= len(framed) {
					continue
				}
				if _, _, err := ReadFrame(framed[:cut]); !IsTruncated(err) {
					t.Fatalf("prefix %d/%d: got %v, want truncated", cut, len(framed), err)
				}
			}

			// Any single-byte corruption is caught: in the body by the CRC,
			// in the header by the CRC or length/bounds checks.
			if len(framed) > 0 {
				i := int(kind) % len(framed)
				mut := append([]byte(nil), framed...)
				mut[i] ^= 0x40
				if mb, _, err := ReadFrame(mut); err == nil {
					// The flip landed in the length field and happened to
					// still frame a valid CRC region — impossible, since the
					// CRC covers the body the length selects. Defensive:
					if bytes.Equal(mb, body) {
						t.Fatal("corrupted frame read back original body")
					}
					if _, err := decode(mb, nil); err == nil {
						t.Fatal("corrupted frame decoded cleanly")
					}
				}
			}
		}

		// Adversarial side: raw bytes through the readers must not panic,
		// and anything that does parse must re-encode to the same body.
		if body2, n, err := ReadFrame(payload); err == nil {
			if n > len(payload) {
				t.Fatalf("ReadFrame consumed %d of %d bytes", n, len(payload))
			}
			if dec, err := decode(body2, nil); err == nil {
				re, err := dec.Encode()
				if err != nil {
					t.Fatalf("re-encode of decoded record: %v", err)
				}
				if !bytes.Equal(re, body2) {
					t.Fatalf("decode/encode not identity:\n in %x\nout %x", body2, re)
				}
			}
		}
		_, _ = decode(payload, nil)
	})
}
