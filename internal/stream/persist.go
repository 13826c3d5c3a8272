package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Topic persistence: an append-order binary snapshot of a topic's log and
// committed offsets, so a feed service can restart without losing its
// replay window (the paper's feeds persist to object storage).
//
// Layout:
//
//	magic "DSTR1\n"
//	varint messageCount
//	messages: varint unixNano, varint keyLen, key, varint valLen, val
//	varint groupCount
//	groups: varint nameLen, name, varint offset

const persistMagic = "DSTR1\n"

// ErrBadSnapshot is returned when restoring malformed data.
var ErrBadSnapshot = errors.New("stream: bad snapshot")

// Persist writes the topic's full log and group offsets to w. It walks
// the pages outside the lock: stored messages never move or change.
func (t *Topic) Persist(w io.Writer) error {
	t.mu.Lock()
	pages, n := t.pages, t.n
	groups := make(map[string]int64, len(t.groups))
	for g, off := range t.groups {
		groups[g] = off
	}
	t.mu.Unlock()

	bw := bufio.NewWriterSize(w, 64<<10)
	if _, err := bw.WriteString(persistMagic); err != nil {
		return err
	}
	putUvarint(bw, uint64(n))
	for off := int64(0); off < n; off += PageSize {
		for _, m := range pages[off/PageSize][:min(PageSize, n-off)] {
			putUvarint(bw, uint64(m.Time.UnixNano()))
			putBytes(bw, []byte(m.Key))
			putBytes(bw, m.Value)
		}
	}
	putUvarint(bw, uint64(len(groups)))
	for g, off := range groups {
		putBytes(bw, []byte(g))
		putUvarint(bw, uint64(off))
	}
	return bw.Flush()
}

// Restore loads a snapshot written by Persist into an empty topic. It
// refuses to restore over existing messages.
func (t *Topic) Restore(r io.Reader) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n != 0 {
		return fmt.Errorf("%w: topic %q not empty", ErrBadSnapshot, t.name)
	}
	br := bufio.NewReaderSize(r, 64<<10)
	head := make([]byte, len(persistMagic))
	if _, err := io.ReadFull(br, head); err != nil || string(head) != persistMagic {
		return fmt.Errorf("%w: magic", ErrBadSnapshot)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("%w: count", ErrBadSnapshot)
	}
	for i := uint64(0); i < n; i++ {
		nanos, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("%w: time", ErrBadSnapshot)
		}
		key, err := getBytes(br)
		if err != nil {
			return fmt.Errorf("%w: key", ErrBadSnapshot)
		}
		val, err := getBytes(br)
		if err != nil {
			return fmt.Errorf("%w: value", ErrBadSnapshot)
		}
		t.append(time.Unix(0, int64(nanos)).UTC(), string(key), val)
	}
	g, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("%w: group count", ErrBadSnapshot)
	}
	for i := uint64(0); i < g; i++ {
		name, err := getBytes(br)
		if err != nil {
			return fmt.Errorf("%w: group name", ErrBadSnapshot)
		}
		off, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("%w: group offset", ErrBadSnapshot)
		}
		t.groups[string(name)] = int64(off)
	}
	return nil
}

func putUvarint(w *bufio.Writer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	w.Write(tmp[:n])
}

func putBytes(w *bufio.Writer, b []byte) {
	putUvarint(w, uint64(len(b)))
	w.Write(b)
}

func getBytes(r *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}
