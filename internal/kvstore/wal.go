// Write-ahead log. Durability code must never drop an error — a lost
// append or sync failure silently breaks crash recovery — so this file is
// under the unchecked-error analyzer.
//
//kml:checkerrors
package kvstore

import (
	"errors"
	"fmt"

	"repro/internal/vfs"
	"repro/internal/wire"
)

// Write-ahead-log record kinds.
const (
	walPut    byte = 1
	walDelete byte = 2
)

// ErrBadWAL reports a corrupt write-ahead log.
var ErrBadWAL = errors.New("kvstore: bad WAL record")

// wal appends durable mutation records ahead of the memtable, one
// walLayout record per mutation.
type wal struct {
	f    *vfs.File
	sync bool // fsync every append (db_bench default is off)
	buf  []byte
}

func newWAL(f *vfs.File, sync bool) *wal {
	return &wal{f: f, sync: sync}
}

// walRecord is one logged mutation.
type walRecord struct {
	kind       byte
	key, value []byte
}

// walLayout is one record: kind u8 (walPut or walDelete), then the key
// and the value as length-prefixed bytes.
func walLayout(c *wire.Codec, r *walRecord) {
	c.U8(&r.kind)
	c.Check(r.kind == walPut || r.kind == walDelete)
	r.key, r.value = c.KeyValue(r.key, r.value)
}

// append logs one mutation.
func (w *wal) append(kind byte, key, value []byte) error {
	c := wire.Encoder(w.buf[:0])
	walLayout(&c, &walRecord{kind, key, value})
	w.buf = c.Bytes()
	if _, err := w.f.Append(w.buf); err != nil {
		return err
	}
	if w.sync {
		w.f.Sync()
	}
	return nil
}

// replayWAL decodes every record in f, for recovery after reopening a DB.
// Keys and values alias one copy of the log.
func replayWAL(f *vfs.File) ([]walRecord, error) {
	data := make([]byte, f.Size())
	if f.Size() > 0 {
		if _, err := f.ReadAt(data, 0); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadWAL, err)
		}
	}
	var out []walRecord
	c := wire.Decoder(data)
	for c.More() {
		var r walRecord
		walLayout(&c, &r)
		out = append(out, r)
	}
	if err := c.End(ErrBadWAL); err != nil {
		return nil, err
	}
	return out, nil
}
