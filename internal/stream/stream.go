// Package stream is an embedded, in-process message log modeled on the
// Kafka topology the DarkDNS paper describes: named topics carry ordered,
// replayable message logs addressed by offset. The log tracks no readers;
// each reader keeps its own offset, as a feed subscriber resuming with
// SUBSCRIBE FROM n does.
//
// Log is the one paged offset log: a Topic is a Log of Messages, and the
// feed server keeps its encoded entries in another. A Consumer is a cursor
// on a Log that blocks on the log's wake-up when it reaches the head.
//
// The log favors batch hand-off over per-message channels: readers take
// slices of entries, which keeps the hot path allocation-free and is the
// design decision benchmarked in DESIGN.md §5.
//
// A log stores its entries in fixed pages of PageSize, so an append never
// moves a stored entry and a returned slice stays valid for the log's
// lifetime. A read returns entries from one page: Read and WaitNext stop
// at a page end, and a caller that wants more reads again.
package stream

import (
	"slices"
	"sync"
	"time"
)

// PageSize is the number of entries in one page of a log.
const PageSize = 4096

// Log is an append-only log of T read by offset. Its zero value is an
// empty log, ready to use. Entries never change once appended.
type Log[T any] struct {
	mu    sync.RWMutex
	pages [][]T // full pages, then the one being filled, then any reserved
	n     int64 // entries ever appended: the next offset
	// waiters are the wake channels of consumers blocked in WaitNext.
	// Append signals every one and deregisters it, so a woken consumer
	// reads at once; one whose wait ends otherwise deregisters itself.
	waiters []chan struct{}
}

// Append appends vs at the head and wakes every consumer waiting in
// WaitNext. It allocates only when it opens a page Reserve did not add.
func (l *Log[T]) Append(vs ...T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, v := range vs {
		p := l.n / PageSize
		if p == int64(len(l.pages)) {
			if l.pages == nil {
				// Room for 64 pages, so the page table grows only after a
				// quarter million entries.
				l.pages = make([][]T, 0, 64)
			}
			l.pages = append(l.pages, make([]T, PageSize))
		}
		l.pages[p][l.n%PageSize] = v
		l.n++
	}
	for _, w := range l.waiters {
		select {
		case w <- struct{}{}:
		default: // already signalled
		}
	}
	clear(l.waiters)
	l.waiters = l.waiters[:0]
}

// Reserve adds the page after the last once fewer than a quarter page of
// slots remain, so that the appends that follow only copy. The page is
// cleared, because a fresh allocation may come as untouched memory whose
// pages would otherwise fault in under Append's copy. A writer that calls
// it after an Append moves that cost out from between the append and the
// wake-up of the consumers it signals.
func (l *Log[T]) Reserve() {
	l.mu.RLock()
	room := int64(len(l.pages))*PageSize - l.n
	l.mu.RUnlock()
	if room >= PageSize/4 {
		return
	}
	page := make([]T, PageSize)
	clear(page)
	l.mu.Lock()
	l.pages = append(l.pages, page)
	l.mu.Unlock()
}

// Len returns the log's head: the number of entries ever appended.
func (l *Log[T]) Len() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.n
}

// Read returns up to max entries starting at offset from. It stops at
// the end of from's page, so fewer than max entries does not mean the
// reader is caught up; an empty slice does. A from past the head returns
// nil; a negative from reads from the beginning. The slice aliases the
// log and must not be written.
func (l *Log[T]) Read(from int64, max int) []T {
	if from < 0 {
		from = 0
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.read(from, max)
}

// read is Read for a caller holding mu. The slice is capped so that an
// append cannot reach past it.
func (l *Log[T]) read(off int64, max int) []T {
	if off >= l.n || max <= 0 {
		return nil
	}
	i := off % PageSize
	end := min(i+int64(max), PageSize, i+l.n-off)
	return l.pages[off/PageSize][i:end:end]
}

// readOrWait returns up to max entries from off or, when off is at the
// head, registers wake so that the next Append signals it. Both happen
// under one lock, so no append can fall between the empty check and the
// registration. A registered caller whose wait ends without a signal
// must call unwait.
func (l *Log[T]) readOrWait(off int64, max int, wake chan struct{}) []T {
	l.mu.Lock()
	defer l.mu.Unlock()
	if vs := l.read(off, max); len(vs) > 0 {
		return vs
	}
	// A signal left from an earlier wait predates the check just made.
	select {
	case <-wake:
	default:
	}
	l.waiters = append(l.waiters, wake)
	return nil
}

// unwait deregisters a wake channel readOrWait registered, if no Append
// has since signalled it.
func (l *Log[T]) unwait(wake chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i := slices.Index(l.waiters, wake); i >= 0 {
		last := len(l.waiters) - 1
		l.waiters[i] = l.waiters[last]
		l.waiters[last] = nil
		l.waiters = l.waiters[:last]
	}
}

// pendingWaiters reports the number of registered waiter channels (tests
// assert the timeout path does not leak entries).
func (l *Log[T]) pendingWaiters() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.waiters)
}

// Consumer returns a cursor that reads l from offset from, at most batch
// entries at a time (minimum 1).
func (l *Log[T]) Consumer(from int64, batch int) *Consumer[T] {
	return &Consumer[T]{log: l, next: max(from, 0), batch: max(batch, 1), wake: make(chan struct{}, 1)}
}

// Consumer reads a log from an offset it keeps itself, blocking when it
// is caught up. It is used by one goroutine at a time.
type Consumer[T any] struct {
	log   *Log[T]
	next  int64 // the offset the next read starts at
	batch int

	// WaitNext's wake-up, signalled by Append while registered with the
	// log, and its deadline timer, created on first use and reset after.
	wake  chan struct{}
	timer *time.Timer
}

// Offset returns the offset the consumer's next read starts at.
func (c *Consumer[T]) Offset() int64 { return c.next }

// SetOffset moves the consumer to offset off.
func (c *Consumer[T]) SetOffset(off int64) { c.next = max(off, 0) }

// WaitNext returns the next batch from the consumer's offset and moves
// past it, blocking until an entry is available, timeout elapses or stop
// is closed (nil never stops it); ok is false when it returns
// empty-handed. It is intended for real-time (non-simulated) use. Once
// its timer exists, a wait allocates nothing.
func (c *Consumer[T]) WaitNext(stop <-chan struct{}, timeout time.Duration) (vs []T, ok bool) {
	var deadline time.Time
	for {
		// The read lock serves every read but the one that may register.
		if vs := c.log.Read(c.next, c.batch); len(vs) > 0 {
			c.next += int64(len(vs))
			return vs, true
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(timeout)
		}
		if vs := c.log.readOrWait(c.next, c.batch, c.wake); len(vs) > 0 {
			c.next += int64(len(vs))
			return vs, true
		}
		if !c.block(stop, time.Until(deadline)) {
			c.log.unwait(c.wake)
			return nil, false
		}
	}
}

// block waits up to d for the wake channel readOrWait registered; false
// means the timer fired first or stop was closed.
func (c *Consumer[T]) block(stop <-chan struct{}, d time.Duration) bool {
	if d <= 0 {
		return false
	}
	if c.timer == nil {
		c.timer = time.NewTimer(d)
	} else {
		c.timer.Reset(d)
	}
	select {
	case <-c.wake:
		c.timer.Stop()
		return true
	case <-c.timer.C:
		return false
	case <-stop:
		c.timer.Stop()
		return false
	}
}

// Message is one record in a topic log.
type Message struct {
	Offset int64
	Time   time.Time
	Key    string
	Value  []byte
}

// Bus is a set of named topics. The zero value is not usable; call NewBus.
type Bus struct {
	mu     sync.RWMutex
	topics map[string]*Topic
}

// NewBus creates an empty bus.
func NewBus() *Bus {
	return &Bus{topics: make(map[string]*Topic)}
}

// Topic returns the named topic, creating it on first use.
func (b *Bus) Topic(name string) *Topic {
	b.mu.RLock()
	t := b.topics[name]
	b.mu.RUnlock()
	if t != nil {
		return t
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if t := b.topics[name]; t != nil {
		return t // lost the creation race; the topic now exists
	}
	t = &Topic{}
	b.topics[name] = t
	return t
}

// Topic is an append-only message log read by offset.
type Topic struct {
	mu  sync.Mutex // serializes publishers, so each stamps the offset it gets
	log Log[Message]
}

// Publish appends a message and returns its offset. It allocates only
// when it opens a page, and wakes every consumer waiting in WaitNext.
func (t *Topic) Publish(now time.Time, key string, value []byte) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	off := t.log.Len()
	t.log.Append(Message{Offset: off, Time: now, Key: key, Value: value})
	return off
}

// Len returns the number of messages ever published.
func (t *Topic) Len() int { return int(t.log.Len()) }

// Read returns up to max messages starting at offset from, as Log.Read
// does.
func (t *Topic) Read(from int64, max int) []Message { return t.log.Read(from, max) }

// NewConsumer creates a consumer that reads topic from offset from, at
// most batch messages at a time (minimum 1).
func NewConsumer(topic *Topic, from int64, batch int) *Consumer[Message] {
	return topic.log.Consumer(from, batch)
}
