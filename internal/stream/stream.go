// Package stream is an embedded, in-process message bus modeled on the
// Kafka topology the DarkDNS paper describes: named topics carry ordered,
// replayable message logs; consumer groups track offsets independently.
//
// The bus favors batch hand-off over per-message channels: consumers poll
// slices of messages, which keeps the hot path allocation-free and is the
// design decision benchmarked in DESIGN.md §5.
//
// A topic stores its log in fixed pages of PageSize messages, so a
// publish never moves a stored message and a returned slice stays valid
// for the topic's lifetime. A read returns messages from one page: Poll
// and Read stop at a page end, and a caller that wants more reads again.
package stream

import (
	"errors"
	"fmt"
	"slices"
	"sort"
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

// Errors returned by the bus.
var (
	ErrNoTopic   = errors.New("stream: no such topic")
	ErrTopicOpen = errors.New("stream: topic already exists")
	ErrClosed    = errors.New("stream: bus closed")
)

// Bus is a set of topics. The zero value is not usable; call NewBus.
type Bus struct {
	mu     sync.RWMutex
	topics map[string]*Topic
	closed bool
}

// NewBus creates an empty bus.
func NewBus() *Bus {
	return &Bus{topics: make(map[string]*Topic)}
}

// CreateTopic adds a topic. Recreating an existing topic is an error.
func (b *Bus) CreateTopic(name string) (*Topic, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	if _, ok := b.topics[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrTopicOpen, name)
	}
	t := newTopic(name)
	b.topics[name] = t
	return t, nil
}

// Topic returns an existing topic, creating it on first use. Topic never
// returns nil: when the bus is already closed and the topic does not
// exist, a detached topic is returned — publishes to it succeed but no
// other caller can discover it, mirroring Close's "only blocks topic
// creation" contract without handing callers a nil to dereference.
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
	t = newTopic(name)
	if !b.closed {
		b.topics[name] = t
	}
	return t
}

// Topics returns the topic names in sorted order.
func (b *Bus) Topics() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	names := make([]string, 0, len(b.topics))
	for n := range b.topics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Close marks the bus closed. Publishing to topics of a closed bus still
// works (topics are independent); Close only blocks topic creation.
func (b *Bus) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
}

// PageSize is the number of messages in one page of a topic's log, the
// geometry of the feed server's encoded log too.
const PageSize = 4096

// Topic is an append-only message log with consumer-group offsets.
type Topic struct {
	name string

	mu     sync.Mutex
	pages  [][]Message      // full pages, then the one being filled
	n      int64            // messages ever published: the next offset
	groups map[string]int64 // committed offset per group (next to read)
	// waiters are the wake channels of consumers blocked in WaitNext;
	// each stays registered for its wait and Publish signals every one.
	waiters []chan struct{}
}

func newTopic(name string) *Topic {
	return &Topic{name: name, groups: make(map[string]int64)}
}

// Name returns the topic name.
func (t *Topic) Name() string { return t.name }

// Publish appends a message and returns its offset. It allocates only
// when it opens a page, and wakes every consumer waiting in WaitNext.
func (t *Topic) Publish(now time.Time, key string, value []byte) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	off := t.append(now, key, value)
	for _, w := range t.waiters {
		select {
		case w <- struct{}{}:
		default: // already signalled
		}
	}
	return off
}

// append stores a message at the head, opening a page when the last one
// is full, and returns its offset. The caller holds mu.
func (t *Topic) append(now time.Time, key string, value []byte) int64 {
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
// or change, and is capped so an append cannot reach past it.
func (t *Topic) read(off int64, max int) []Message {
	if off >= t.n || max <= 0 {
		return nil
	}
	i := off % PageSize
	end := min(i+int64(max), PageSize, i+t.n-off)
	return t.pages[off/PageSize][i:end:end]
}

// Poll returns up to max messages for group starting at its committed
// offset, without committing. It stops at the end of a page, so fewer
// than max messages does not mean the group is caught up; an empty slice
// does.
func (t *Topic) Poll(group string, max int) []Message {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.read(t.groups[group], max)
}

// Commit advances group's offset to next (typically lastRead+1). Offsets
// never move backwards.
func (t *Topic) Commit(group string, next int64) {
	t.mu.Lock()
	if next > t.groups[group] {
		t.groups[group] = next
	}
	t.mu.Unlock()
}

// Drop removes group's committed offset. Per-connection consumer groups
// must be dropped on disconnect or they accumulate in the topic forever
// (the feed-server leak this API was added to fix). Dropping an unknown
// group is a no-op.
func (t *Topic) Drop(group string) {
	t.mu.Lock()
	delete(t.groups, group)
	t.mu.Unlock()
}

// Groups returns the registered consumer-group names in sorted order.
func (t *Topic) Groups() []string {
	t.mu.Lock()
	names := make([]string, 0, len(t.groups))
	for g := range t.groups {
		names = append(names, g)
	}
	t.mu.Unlock()
	sort.Strings(names)
	return names
}

// Read returns up to max messages starting at offset from, independent of
// any consumer group — the replay path for subscribers that track their
// own position (the feed tier's catch-up reads). Like Poll it stops at
// the end of from's page. A from past the head returns nil; a negative
// from reads from the beginning.
func (t *Topic) Read(from int64, max int) []Message {
	if from < 0 {
		from = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.read(from, max)
}

// Committed returns the group's committed offset.
func (t *Topic) Committed(group string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.groups[group]
}

// Lag returns how many messages group has not yet consumed.
func (t *Topic) Lag(group string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n - t.groups[group]
}

// pollOrWait returns up to max messages from group's committed offset and
// commits them, or, when the group is caught up, registers wake so that
// the next Publish signals it. Both happen under one lock, so no publish
// can fall between the empty check and the registration. A registered
// caller must call unwait when its wait ends.
func (t *Topic) pollOrWait(group string, max int, wake chan struct{}) []Message {
	t.mu.Lock()
	defer t.mu.Unlock()
	if msgs := t.read(t.groups[group], max); len(msgs) > 0 {
		t.groups[group] = msgs[len(msgs)-1].Offset + 1
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

// unwait deregisters a wake channel pollOrWait registered.
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

// Consumer is a convenience wrapper binding a topic and a group. It is
// used by one goroutine at a time.
type Consumer struct {
	topic *Topic
	group string
	batch int

	// WaitNext's wake-up, signalled by Publish while registered with the
	// topic, and its deadline timer, created on first use and reset after.
	wake  chan struct{}
	timer *time.Timer
}

// NewConsumer creates a consumer for group on topic with the given poll
// batch size (minimum 1).
func NewConsumer(topic *Topic, group string, batch int) *Consumer {
	if batch < 1 {
		batch = 1
	}
	return &Consumer{topic: topic, group: group, batch: batch, wake: make(chan struct{}, 1)}
}

// Close drops the consumer's group from the topic. Call it when the
// consumer is ephemeral (one group per connection) so the topic's group
// map does not grow without bound. The consumer must not be used after
// Close; a subsequent Poll would restart from offset zero.
func (c *Consumer) Close() {
	c.topic.Drop(c.group)
}

// Next returns the next batch and commits it. ok is false when caught up.
func (c *Consumer) Next() (msgs []Message, ok bool) {
	msgs = c.topic.Poll(c.group, c.batch)
	if len(msgs) == 0 {
		return nil, false
	}
	c.topic.Commit(c.group, msgs[len(msgs)-1].Offset+1)
	return msgs, true
}

// Drain consumes all pending messages, invoking fn per message, and
// commits after each batch. It returns the number consumed.
func (c *Consumer) Drain(fn func(Message)) int {
	n := 0
	for {
		msgs, ok := c.Next()
		if !ok {
			return n
		}
		for _, m := range msgs {
			fn(m)
			n++
		}
	}
}

// WaitNext blocks until a message is available, timeout elapses or stop
// is closed (nil never stops it), then behaves like Next. It is intended
// for real-time (non-simulated) use. Once its timer exists, a wait
// allocates nothing.
func (c *Consumer) WaitNext(stop <-chan struct{}, timeout time.Duration) ([]Message, bool) {
	deadline := time.Now().Add(timeout)
	for {
		if msgs := c.topic.pollOrWait(c.group, c.batch, c.wake); len(msgs) > 0 {
			return msgs, true
		}
		woken := c.block(stop, time.Until(deadline))
		c.topic.unwait(c.wake)
		if !woken {
			return nil, false
		}
	}
}

// block waits up to d for the wake channel pollOrWait registered; false
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
