package blackbox

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/wire/wiretest"
)

// dirty returns an n-byte buffer of junk, so an encoder that skips a byte
// shows.
func dirty(n int) []byte { return bytes.Repeat([]byte{0xA5}, n) }

// TestHeaderBytesGolden pins one file header sector and one record header;
// the hashes were computed with the hand-written encoders the wire
// layouts replaced.
func TestHeaderBytesGolden(t *testing.T) {
	hdr := dirty(FileHeaderSize)
	putFileHeader(hdr, 64*1024, 1_700_000_000_123_456_789)
	rec := dirty(RecordHeaderSize)
	putRecordHeader(rec, KindTraces, 42, -1_700_000_001_000_000_000, 1234, 0xDEADBEEF)
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"file header", hdr, "8b2f0791a1c7f43e48848fb99604c91967595c1de64815abeef6135fc270041a"},
		{"record header", rec, "e61cd4888bb4b5a0a0e19e87ab3dede360e80bcefc6070cb2fd3b5df7efb4107"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(c.data)); got != c.want {
			t.Errorf("%s: sha256 %s, want %s", c.name, got, c.want)
		}
	}
}

// TestHeadersMatchReference checks the header encoders against the ones
// they replaced, and parseFileHeader against the reference on every
// truncation and byte flip of a header sector.
func TestHeadersMatchReference(t *testing.T) {
	for _, ring := range []int64{SectorSize, 64 * 1024, 1 << 40} {
		for _, created := range []int64{0, -1, 1_700_000_000_123_456_789} {
			got, want := dirty(FileHeaderSize), dirty(FileHeaderSize)
			putFileHeader(got, ring, created)
			refPutFileHeader(want, ring, created)
			if !bytes.Equal(got, want) {
				t.Fatalf("file header %d/%d: got %x, reference %x", ring, created, got, want)
			}
		}
	}
	for _, kind := range []Kind{KindMetrics, KindLearn, 0xFF} {
		for _, plen := range []int{0, 1, MaxRecordPayload} {
			got, want := dirty(RecordHeaderSize), dirty(RecordHeaderSize)
			putRecordHeader(got, kind, uint64(plen)<<20|7, int64(-plen), plen, uint32(plen)*0x9E3779B9)
			refPutRecordHeader(want, kind, uint64(plen)<<20|7, int64(-plen), plen, uint32(plen)*0x9E3779B9)
			if !bytes.Equal(got, want) {
				t.Fatalf("record header %d/%d: got %x, reference %x", kind, plen, got, want)
			}
		}
	}
	hdr := make([]byte, FileHeaderSize)
	putFileHeader(hdr, 64*1024, 1_700_000_000_123_456_789)
	wiretest.Each(hdr, func(m wiretest.Mutation) {
		ring, created, err := parseFileHeader(m.Data)
		rring, rcreated, rerr := refParseFileHeader(m.Data)
		if ring != rring || created != rcreated || err != rerr {
			t.Fatalf("%v: parsed %d/%d/%v, reference %d/%d/%v", m, ring, created, err, rring, rcreated, rerr)
		}
	})
}

// TestScanMatchesReference runs Scan against the scanner it replaced on
// the head of a written box (header sector and three records) and on every
// truncation and byte flip of it: the same records, torn count and ring
// size.
func TestScanMatchesReference(t *testing.T) {
	img, spans, _ := buildBox(t)
	head := img[:spans[2][1]]
	check := func(what string, data []byte) {
		got, err := Scan(data)
		ref, rerr := refScan(data)
		if err != rerr || !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s: scanned %+v, %v; reference %+v, %v", what, got, err, ref, rerr)
		}
	}
	check("head", head)
	wiretest.Each(head, func(m wiretest.Mutation) { check(m.String(), m.Data) })
}

// TestHeadersRejectEveryMutation: both headers are checksummed, so every
// truncation and every byte flip of a record header fails to verify, and
// so does every truncation of the header sector and every flip of its
// checksummed bytes. The sector's zero padding is not read back.
func TestHeadersRejectEveryMutation(t *testing.T) {
	rec := make([]byte, RecordHeaderSize)
	putRecordHeader(rec, KindMetrics, 9, 1_700_000_000_000_000_000, 700, 0x12345678)
	if _, ok := parseRecordHeader(rec); !ok {
		t.Fatal("intact record header does not verify")
	}
	wiretest.Each(rec, func(m wiretest.Mutation) {
		if _, ok := parseRecordHeader(m.Data); ok {
			t.Fatalf("record header %v verifies", m)
		}
	})
	hdr := make([]byte, FileHeaderSize)
	putFileHeader(hdr, 64*1024, 1_700_000_000_123_456_789)
	wiretest.Each(hdr, func(m wiretest.Mutation) {
		_, _, err := parseFileHeader(m.Data)
		if padding := !m.Cut && m.At >= 36; padding != (err == nil) {
			t.Fatalf("file header %v: err = %v", m, err)
		}
	})
}
