// Package stream is an embedded, in-process message bus modeled on the
// Kafka topology the DarkDNS paper describes: named topics carry ordered,
// replayable message logs; consumer groups track offsets independently.
//
// The bus favors batch hand-off over per-message channels: consumers poll
// slices of messages, which keeps the hot path allocation-free and is the
// design decision benchmarked in DESIGN.md §5.
package stream

import (
	"errors"
	"fmt"
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

// Topic is an append-only message log with consumer-group offsets.
type Topic struct {
	name string

	mu         sync.Mutex
	log        []Message
	groups     map[string]int64 // committed offset per group (next to read)
	waiters    map[uint64]chan struct{}
	nextWaiter uint64
}

func newTopic(name string) *Topic {
	return &Topic{name: name, groups: make(map[string]int64), waiters: make(map[uint64]chan struct{})}
}

// Name returns the topic name.
func (t *Topic) Name() string { return t.name }

// Publish appends a message and returns its offset.
func (t *Topic) Publish(now time.Time, key string, value []byte) int64 {
	t.mu.Lock()
	off := int64(len(t.log))
	t.log = append(t.log, Message{Offset: off, Time: now, Key: key, Value: value})
	waiters := t.takeWaiters()
	t.mu.Unlock()
	for _, w := range waiters {
		close(w)
	}
	return off
}

// takeWaiters drains the waiter set; caller holds mu and must close every
// returned channel after releasing it.
func (t *Topic) takeWaiters() []chan struct{} {
	if len(t.waiters) == 0 {
		return nil
	}
	ws := make([]chan struct{}, 0, len(t.waiters))
	for _, w := range t.waiters {
		ws = append(ws, w)
	}
	clear(t.waiters)
	return ws
}

// Len returns the number of messages ever published.
func (t *Topic) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.log)
}

// Poll returns up to max messages for group starting at its committed
// offset, without committing. An empty slice means the group is caught up.
func (t *Topic) Poll(group string, max int) []Message {
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.groups[group]
	if start >= int64(len(t.log)) {
		return nil
	}
	end := start + int64(max)
	if end > int64(len(t.log)) {
		end = int64(len(t.log))
	}
	return t.log[start:end]
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
// own position (the feed tier's catch-up reads). A from past the head
// returns nil; a negative from reads from the beginning.
func (t *Topic) Read(from int64, max int) []Message {
	if from < 0 {
		from = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if from >= int64(len(t.log)) || max <= 0 {
		return nil
	}
	end := from + int64(max)
	if end > int64(len(t.log)) {
		end = int64(len(t.log))
	}
	return t.log[from:end]
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
	return int64(len(t.log)) - t.groups[group]
}

// wait returns a channel closed at the next publish plus a cancel that
// deregisters the channel. Callers must re-check state after the channel
// fires, and must call cancel when abandoning the wait (e.g. on timeout)
// so the waiter entry does not accumulate on publish-idle topics.
func (t *Topic) wait() (<-chan struct{}, func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ch := make(chan struct{})
	id := t.nextWaiter
	t.nextWaiter++
	t.waiters[id] = ch
	return ch, func() {
		t.mu.Lock()
		delete(t.waiters, id)
		t.mu.Unlock()
	}
}

// pendingWaiters reports the number of registered waiter channels (tests
// assert the timeout path does not leak entries).
func (t *Topic) pendingWaiters() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.waiters)
}

// Consumer is a convenience wrapper binding a topic and a group.
type Consumer struct {
	topic *Topic
	group string
	batch int
}

// NewConsumer creates a consumer for group on topic with the given poll
// batch size (minimum 1).
func NewConsumer(topic *Topic, group string, batch int) *Consumer {
	if batch < 1 {
		batch = 1
	}
	return &Consumer{topic: topic, group: group, batch: batch}
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
// for real-time (non-simulated) use.
func (c *Consumer) WaitNext(stop <-chan struct{}, timeout time.Duration) ([]Message, bool) {
	deadline := time.Now().Add(timeout)
	for {
		if msgs, ok := c.Next(); ok {
			return msgs, true
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, false
		}
		ch, cancel := c.topic.wait()
		timer := time.NewTimer(remain)
		select {
		case <-ch:
			timer.Stop()
			cancel()
		case <-timer.C:
			cancel()
			return nil, false
		case <-stop:
			timer.Stop()
			cancel()
			return nil, false
		}
	}
}
