// Package stream is an embedded, in-process message log modeled on the
// Kafka topology the DarkDNS paper describes: named topics carry ordered,
// replayable message logs addressed by offset. The log tracks no readers;
// each reader keeps its own offset, as a feed subscriber resuming with
// SUBSCRIBE FROM n does.
//
// The log favors batch hand-off over per-message channels: readers take
// slices of messages, which keeps the hot path allocation-free and is the
// design decision benchmarked in DESIGN.md §5.
//
// A topic stores its log in fixed pages of PageSize messages, so a
// publish never moves a stored message and a returned slice stays valid
// for the topic's lifetime. A read returns messages from one page: Read
// and WaitNext stop at a page end, and a caller that wants more reads
// again.
package stream

import (
	"slices"
	"sync"
	"time"
)

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

// PageSize is the number of messages in one page of a topic's log, the
// geometry of the feed server's encoded log too.
const PageSize = 4096

// Topic is an append-only message log read by offset.
type Topic struct {
	mu    sync.Mutex
	pages [][]Message // full pages, then the one being filled
	n     int64       // messages ever published: the next offset
	// waiters are the wake channels of consumers blocked in WaitNext;
	// each stays registered for its wait and Publish signals every one.
	waiters []chan struct{}
}

// Publish appends a message and returns its offset. It allocates only
// when it opens a page, and wakes every consumer waiting in WaitNext.
func (t *Topic) Publish(now time.Time, key string, value []byte) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	off := t.n
	if off%PageSize == 0 {
		if t.pages == nil {
			// Room for 64 pages, so the page table grows only after a
			// quarter million messages.
			t.pages = make([][]Message, 0, 64)
		}
		t.pages = append(t.pages, make([]Message, PageSize))
	}
	t.pages[off/PageSize][off%PageSize] = Message{Offset: off, Time: now, Key: key, Value: value}
	t.n++
	for _, w := range t.waiters {
		select {
		case w <- struct{}{}:
		default: // already signalled
		}
	}
	return off
}

// Len returns the number of messages ever published.
func (t *Topic) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(t.n)
}

// read returns up to max messages from off, stopping at the head and at
// the end of off's page; nil when off is at or past the head. The caller
// holds mu. The slice aliases the log, whose stored messages never move
// or change, and is capped so a publish cannot reach past it.
func (t *Topic) read(off int64, max int) []Message {
	if off >= t.n || max <= 0 {
		return nil
	}
	i := off % PageSize
	end := min(i+int64(max), PageSize, i+t.n-off)
	return t.pages[off/PageSize][i:end:end]
}

// Read returns up to max messages starting at offset from. It stops at
// the end of from's page, so fewer than max messages does not mean the
// reader is caught up; an empty slice does. A from past the head returns
// nil; a negative from reads from the beginning.
func (t *Topic) Read(from int64, max int) []Message {
	if from < 0 {
		from = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.read(from, max)
}

// readOrWait returns up to max messages from off or, when off is at the
// head, registers wake so that the next Publish signals it. Both happen
// under one lock, so no publish can fall between the empty check and the
// registration. A registered caller must call unwait when its wait ends.
func (t *Topic) readOrWait(off int64, max int, wake chan struct{}) []Message {
	t.mu.Lock()
	defer t.mu.Unlock()
	if msgs := t.read(off, max); len(msgs) > 0 {
		return msgs
	}
	// A signal left from an earlier wait predates the check just made.
	select {
	case <-wake:
	default:
	}
	t.waiters = append(t.waiters, wake)
	return nil
}

// unwait deregisters a wake channel readOrWait registered.
func (t *Topic) unwait(wake chan struct{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i := slices.Index(t.waiters, wake); i >= 0 {
		last := len(t.waiters) - 1
		t.waiters[i] = t.waiters[last]
		t.waiters[last] = nil
		t.waiters = t.waiters[:last]
	}
}

// pendingWaiters reports the number of registered waiter channels (tests
// assert the timeout path does not leak entries).
func (t *Topic) pendingWaiters() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.waiters)
}

// Consumer reads a topic from an offset it keeps itself, blocking when
// it is caught up. It is used by one goroutine at a time.
type Consumer struct {
	topic *Topic
	next  int64 // the offset the next read starts at
	batch int

	// WaitNext's wake-up, signalled by Publish while registered with the
	// topic, and its deadline timer, created on first use and reset after.
	wake  chan struct{}
	timer *time.Timer
}

// NewConsumer creates a consumer that reads topic from offset from, at
// most batch messages at a time (minimum 1).
func NewConsumer(topic *Topic, from int64, batch int) *Consumer {
	return &Consumer{topic: topic, next: max(from, 0), batch: max(batch, 1), wake: make(chan struct{}, 1)}
}

// WaitNext returns the next batch from the consumer's offset and moves
// past it, blocking until a message is available, timeout elapses or
// stop is closed (nil never stops it); ok is false when it returns
// empty-handed. It is intended for real-time (non-simulated) use. Once
// its timer exists, a wait allocates nothing.
func (c *Consumer) WaitNext(stop <-chan struct{}, timeout time.Duration) (msgs []Message, ok bool) {
	deadline := time.Now().Add(timeout)
	for {
		if msgs := c.topic.readOrWait(c.next, c.batch, c.wake); len(msgs) > 0 {
			c.next = msgs[len(msgs)-1].Offset + 1
			return msgs, true
		}
		woken := c.block(stop, time.Until(deadline))
		c.topic.unwait(c.wake)
		if !woken {
			return nil, false
		}
	}
}

// block waits up to d for the wake channel readOrWait registered; false
// means the timer fired first or stop was closed.
func (c *Consumer) block(stop <-chan struct{}, d time.Duration) bool {
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
