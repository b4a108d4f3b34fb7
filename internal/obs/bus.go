package obs

// DefaultCapacity is the ring size NewBus(0) selects: large enough to
// hold every event of the stock experiments at their default scale.
const DefaultCapacity = 1 << 16

// Bus is a typed event bus with multi-subscriber fan-out and a
// fixed-capacity ring buffer. Producers call Publish; consumers either
// Subscribe (called synchronously, in subscription order, for every
// matching event — including those later overwritten in the ring) or
// read the retained window back with Events.
//
// The bus is single-goroutine like the simulation: no locks. Publish
// never allocates — the ring is preallocated and subscriber lists are
// fixed after setup — so attaching an empty bus keeps the execution hot
// path allocation-free.
type Bus struct {
	ring  []Event
	w     int // next write slot
	n     int // live events (<= len(ring))
	total uint64

	subs [kindCount][]func(Event)

	// View state (see stage.go): a view forwards to parent and owns no
	// ring; while staging it buffers events for ordered replay instead.
	parent  *Bus
	staged  []Event
	marks   []int
	staging bool
}

// NewBus creates a bus retaining up to capacity events; capacity <= 0
// selects DefaultCapacity.
func NewBus(capacity int) *Bus {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Bus{ring: make([]Event, capacity)}
}

// Publish appends the event to the ring (overwriting the oldest when
// full) and fans it out to the kind's subscribers in subscription order.
// On a view it forwards to the parent — or, while staging, buffers the
// event for the section driver to replay in deterministic order.
func (b *Bus) Publish(e Event) {
	if b.parent != nil {
		if b.staging {
			b.staged = append(b.staged, e)
			return
		}
		b.parent.Publish(e)
		return
	}
	b.ring[b.w] = e
	b.w++
	if b.w == len(b.ring) {
		b.w = 0
	}
	if b.n < len(b.ring) {
		b.n++
	}
	b.total++
	for _, fn := range b.subs[e.Kind] {
		fn(e)
	}
}

// Subscribe registers fn for every subsequent event of kind k. Multiple
// subscribers coexist; there is no unsubscribe — a consumer that loses
// interest simply ignores its callbacks (subscriptions live as long as
// the rig, matching how traces are used).
func (b *Bus) Subscribe(k Kind, fn func(Event)) {
	if b.parent != nil {
		b.parent.Subscribe(k, fn)
		return
	}
	b.subs[k] = append(b.subs[k], fn)
}

// SubscribeAll registers fn for every subsequent event of any kind.
func (b *Bus) SubscribeAll(fn func(Event)) {
	if b.parent != nil {
		b.parent.SubscribeAll(fn)
		return
	}
	for k := range b.subs {
		b.subs[k] = append(b.subs[k], fn)
	}
}

// Events returns the retained window, oldest first. The slice is a copy;
// the ring is not disturbed.
func (b *Bus) Events() []Event {
	if b.parent != nil {
		return b.parent.Events()
	}
	out := make([]Event, b.n)
	start := b.w - b.n
	if start < 0 {
		start += len(b.ring)
	}
	for i := 0; i < b.n; i++ {
		out[i] = b.ring[(start+i)%len(b.ring)]
	}
	return out
}

// EventsOfKind returns the retained events of one kind, oldest first.
func (b *Bus) EventsOfKind(k Kind) []Event {
	if b.parent != nil {
		return b.parent.EventsOfKind(k)
	}
	var out []Event
	start := b.w - b.n
	if start < 0 {
		start += len(b.ring)
	}
	for i := 0; i < b.n; i++ {
		if e := b.ring[(start+i)%len(b.ring)]; e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// Len returns the number of retained events.
func (b *Bus) Len() int {
	if b.parent != nil {
		return b.parent.Len()
	}
	return b.n
}

// Total counts every event ever published.
func (b *Bus) Total() uint64 {
	if b.parent != nil {
		return b.parent.Total()
	}
	return b.total
}

// Dropped counts events overwritten in the ring (published minus
// retained). Subscribers saw them; Events no longer returns them.
func (b *Bus) Dropped() uint64 {
	if b.parent != nil {
		return b.parent.Dropped()
	}
	return b.total - uint64(b.n)
}
