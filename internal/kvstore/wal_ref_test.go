package kvstore

// The WAL record codec as it was before it ran on internal/wire, kept
// verbatim (renamed ref*) as the oracle for TestWALMatchesReference. It is
// the reference implementation: do not "fix" it.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/vfs"
)

// refAppend is wal.append's encoding, returning the record bytes.
func refAppend(kind byte, key, value []byte) []byte {
	var buf []byte
	buf = append(buf, kind)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(key)))
	buf = append(buf, tmp[:n]...)
	buf = append(buf, key...)
	n = binary.PutUvarint(tmp[:], uint64(len(value)))
	buf = append(buf, tmp[:n]...)
	buf = append(buf, value...)
	return buf
}

func refReplayWAL(f *vfs.File) ([]walRecord, error) {
	data := make([]byte, f.Size())
	if f.Size() > 0 {
		if _, err := f.ReadAt(data, 0); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadWAL, err)
		}
	}
	var out []walRecord
	for len(data) > 0 {
		kind := data[0]
		if kind != walPut && kind != walDelete {
			return nil, fmt.Errorf("%w: kind %d", ErrBadWAL, kind)
		}
		data = data[1:]
		klen, n := binary.Uvarint(data)
		if n <= 0 || klen > uint64(len(data)-n) {
			return nil, fmt.Errorf("%w: key length", ErrBadWAL)
		}
		data = data[n:]
		key := append([]byte(nil), data[:klen]...)
		data = data[klen:]
		vlen, n := binary.Uvarint(data)
		if n <= 0 || vlen > uint64(len(data)-n) {
			return nil, fmt.Errorf("%w: value length", ErrBadWAL)
		}
		data = data[n:]
		value := append([]byte(nil), data[:vlen]...)
		data = data[vlen:]
		out = append(out, walRecord{kind: kind, key: key, value: value})
	}
	return out, nil
}
