package obs

// stage.go gives the bus a per-producer staging mode, the piece that
// lets the parallel fleet engine keep the bus's strict sequential event
// order while machines tick on concurrent goroutines.
//
// A view (NewView) is a Bus bound to a parent: it owns no ring and no
// subscribers of its own. Outside a parallel section it is transparent —
// Publish forwards to the parent immediately, reads and Subscribe
// delegate — so code holding a view is byte-for-byte equivalent to code
// holding the parent. Inside a parallel section (BeginStage..EndStage)
// Publish appends to a private buffer instead, with Mark recording a
// quantum boundary, and the section's driver replays the buffers into
// the parent afterwards in (quantum, machine) order. The parent's ring
// writes and subscriber fan-out therefore always happen on the driving
// goroutine, in exactly the order a sequential run would have produced.

// NewView returns a staging view of parent. The view publishes through
// to the parent until BeginStage diverts it into its private buffer.
func NewView(parent *Bus) *Bus {
	return &Bus{parent: parent}
}

// BeginStage diverts subsequent Publish calls into the view's private
// buffer until EndStage. Only meaningful on a view; the staged events
// are read back with Staged and replayed by the section driver.
func (b *Bus) BeginStage() {
	b.staged = b.staged[:0]
	b.marks = b.marks[:0]
	b.staging = true
}

// Mark records a quantum boundary: events published since the previous
// Mark (or BeginStage) belong to the quantum just completed.
func (b *Bus) Mark() {
	b.marks = append(b.marks, len(b.staged))
}

// Staged returns the events of staged quantum q (0-based, valid up to
// the number of Mark calls). The slice aliases the staging buffer and is
// valid until the next BeginStage.
func (b *Bus) Staged(q int) []Event {
	if q >= len(b.marks) {
		return nil
	}
	lo := 0
	if q > 0 {
		lo = b.marks[q-1]
	}
	return b.staged[lo:b.marks[q]]
}

// EndStage returns the view to passthrough mode. The staged buffer is
// kept for reuse; the caller replays it with Staged before ending.
func (b *Bus) EndStage() {
	b.staging = false
}
