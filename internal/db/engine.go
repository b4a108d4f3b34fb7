package db

import (
	"fmt"
	"slices"
	"strconv"

	"elasticore/internal/deque"
	"elasticore/internal/numa"
	"elasticore/internal/obs"
	"elasticore/internal/sched"
)

// Placement selects the engine's thread/data placement strategy.
type Placement int

const (
	// PlacementOS leaves thread scheduling entirely to the OS, like
	// MonetDB: every submitted query fans out its own set of unpinned
	// worker threads ("the SQL version generates multiple threads for
	// every operator in the query plan", Section II-B), which the kernel
	// places and balances — the thread churn of Figures 4 and 5.
	PlacementOS Placement = iota
	// PlacementNUMAAware runs a fixed pool with one worker pinned to each
	// core and dispatches tasks toward the node holding their input data,
	// like SQL Server.
	PlacementNUMAAware
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	if p == PlacementNUMAAware {
		return "numa-aware"
	}
	return "os"
}

// Config assembles an Engine.
type Config struct {
	// Scheduler the worker threads run under.
	Scheduler *sched.Scheduler
	// PID is the DBMS server process id (cgroup membership, residency).
	PID int
	// Workers is the pool size; zero selects one per core (the MonetDB
	// default: "one thread per core").
	Workers int
	// Fanout is the partition count per operator; zero selects Workers.
	Fanout int
	// Placement selects OS-managed (MonetDB) or NUMA-aware (SQL Server)
	// behaviour.
	Placement Placement
	// MinPartRows bounds partitioning for small inputs; zero selects 256.
	MinPartRows int
	// ParseCycles is the serial admission cost per query: parsing,
	// optimization and catalog access run under a global lock in one
	// server thread (MonetDB's mvc/MAL front end). Zero selects 150 us at
	// the machine clock; negative disables the front end entirely
	// (queries start their dataflow immediately).
	ParseCycles int64
}

// Engine executes plans over a Store with a fixed worker-thread pool.
type Engine struct {
	cfg     Config
	store   *Store
	machine *numa.Machine
	sched   *sched.Scheduler

	workers []*worker
	// exited holds the per-query worker records whose threads have
	// exited; the next fork reinitialises them, thread record included,
	// instead of allocating. The engine holds their last pointers.
	exited []*worker
	// labelBuf and labelEnds are the fork's scratch for its workers'
	// thread labels (startQuery).
	labelBuf  []byte
	labelEnds []int
	// queue is the central dispatch FIFO (PlacementOS); nodeQueues are
	// per-node FIFOs used first under PlacementNUMAAware.
	queue      deque.Deque[*dispatched]
	nodeQueues []deque.Deque[*dispatched]

	queries     []*Query
	nextQueryID int
	// spare holds the bodies of released queries, for Submit to reuse
	// (pool.go).
	spare []*queryBody

	// serverJobs is the serial front-end queue drained by serverThread:
	// query admissions (parse) and stage advances (dataflow claims).
	serverJobs   deque.Deque[serverJob]
	serverThread *sched.Thread
	// claimCycles is the serial dataflow-claim cost per operator stage,
	// 30 us at the machine clock: MonetDB's DFLOW scheduler admits each
	// instruction's worker fan-out through a central claim section, which
	// is what keeps measured CPU load below saturation at high client
	// counts. Only charged when the front end is enabled.
	claimCycles uint64

	// pool recycles the heap storage of query execution — candidate
	// lists, value buffers, aggregation partials, join tables and dispatch
	// envelopes — so queries stop allocating once warm. Storage is handed
	// to queries on demand; an intermediate's comes back when its last
	// reader's stage drains, a result's when the query is released.
	pool bufPool
	// rec keeps the candidate lists of repeated selections (recycle.go),
	// built at the engine's first selection.
	rec *recycler
	// scratch is where the jobs this engine joins without a helper compute
	// (beside.go); jobs counts where its jobs ran.
	scratch scratch
	jobs    jobCounts
	handoff uint8 // which jobs meet a helper: handoffAuto but in tests

	// TasksExecuted counts finished tasks (paper Fig 13 (c)).
	TasksExecuted uint64

	// bus, when attached, receives KindTaskDone events stamped with
	// busTenant; nil keeps the completion path dark. The bus replaced
	// the pre-bus OnTaskDone single hook (replace-on-attach, so a
	// second consumer silently clobbered the first), which was deleted
	// once every consumer moved over.
	bus       *obs.Bus
	busTenant string
}

// SetBus attaches the telemetry bus the engine publishes task
// completions onto (nil detaches); tenant labels the events under
// consolidation ("" for a single-tenant rig). Attach once, before
// subscribing consumers.
func (e *Engine) SetBus(b *obs.Bus, tenant string) { e.bus, e.busTenant = b, tenant }

// dispatched pairs a task with its owning query.
type dispatched struct {
	task  Task
	query *Query
	start uint64
}

// NewEngine creates the engine and spawns its worker pool. Workers block
// until tasks arrive.
func NewEngine(store *Store, cfg Config) (*Engine, error) {
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("db: Scheduler is required")
	}
	if cfg.PID == 0 {
		return nil, fmt.Errorf("db: PID is required")
	}
	topo := store.Machine().Topology()
	if cfg.Workers == 0 {
		cfg.Workers = topo.TotalCores()
	}
	if cfg.Fanout == 0 {
		cfg.Fanout = cfg.Workers
	}
	if cfg.MinPartRows == 0 {
		cfg.MinPartRows = 256
	}
	e := &Engine{
		cfg:        cfg,
		store:      store,
		machine:    store.Machine(),
		sched:      cfg.Scheduler,
		nodeQueues: make([]deque.Deque[*dispatched], topo.NodeCount),
	}
	if cfg.ParseCycles == 0 {
		cfg.ParseCycles = int64(topo.SecondsToCycles(150e-6))
	}
	e.cfg = cfg
	e.claimCycles = topo.SecondsToCycles(30e-6)
	if cfg.Placement == PlacementNUMAAware {
		// SQL Server style: a fixed pool, one worker pinned per core.
		for i := 0; i < cfg.Workers; i++ {
			w := &worker{eng: e, id: i, pinnedNode: numa.NoNode}
			core := numa.CoreID(i % topo.TotalCores())
			w.pinnedNode = topo.NodeOf(core)
			w.thread = cfg.Scheduler.Spawn(cfg.PID, fmt.Sprintf("worker%d", i), w,
				sched.Pinned(sched.NewCPUSet(core)))
			e.workers = append(e.workers, w)
		}
	}
	if cfg.ParseCycles > 0 {
		e.serverThread = cfg.Scheduler.Spawn(cfg.PID, "server", &serverRunner{eng: e})
	}
	return e, nil
}

// serverJob is one unit of serial front-end work.
type serverJob struct {
	query  *Query
	cycles uint64
	start  bool // parse+start vs stage advance
}

// serverRunner is the single front-end thread: it burns the serial cost
// of parses and dataflow claims, then performs them. Its serialization is
// the Amdahl component that keeps many-client CPU load in the elastic
// band.
type serverRunner struct {
	eng       *Engine
	cur       serverJob
	hasCur    bool
	remaining uint64
}

// Run implements sched.Runner.
func (s *serverRunner) Run(_ *sched.ExecContext, budget uint64) (uint64, bool, bool) {
	var used uint64
	for used < budget {
		if !s.hasCur {
			job, ok := s.eng.serverJobs.PopFront()
			if !ok {
				return used, used == 0, false
			}
			s.cur, s.hasCur = job, true
			s.remaining = job.cycles
		}
		slice := budget - used
		if slice < s.remaining {
			s.remaining -= slice
			return budget, false, false
		}
		used += s.remaining
		job := s.cur
		s.hasCur = false
		if job.start {
			s.eng.startQuery(job.query)
		} else {
			s.eng.advance(job.query)
		}
	}
	return used, false, false
}

// Store returns the engine's catalog.
func (e *Engine) Store() *Store { return e.store }

// PID returns the server process id.
func (e *Engine) PID() int { return e.cfg.PID }

// Placement returns the configured placement strategy.
func (e *Engine) Placement() Placement { return e.cfg.Placement }

// Submit starts executing a plan and returns its Query handle. The first
// stage's tasks are enqueued immediately. Under PlacementOS the query
// fans out its own worker threads (MonetDB's per-query dataflow threads);
// they exit when the query completes. The handle is new; the body it runs
// in is a released query's when one is spare.
func (e *Engine) Submit(p *Plan) *Query {
	e.nextQueryID++
	q := &Query{
		ID:          e.nextQueryID,
		Plan:        p,
		startCycles: e.machine.Now(),
		queryBody:   e.body(),
	}
	e.queries = append(e.queries, q)
	if e.serverThread != nil {
		// Serial front end: parse/optimize first, dataflow after.
		e.serverJobs.PushBack(serverJob{
			query: q, cycles: uint64(e.cfg.ParseCycles), start: true,
		})
		e.sched.Wake(e.serverThread)
		return q
	}
	e.startQuery(q)
	return q
}

// startQuery launches the dataflow of an admitted query.
func (e *Engine) startQuery(q *Query) {
	if e.cfg.Placement == PlacementOS {
		// The dataflow threads fork near their client connection's
		// handler; the OS balancer spreads them afterwards (the stolen
		// tasks of Fig 13 (d)). The fork is the model, its host objects
		// are not: an exited worker's record, thread record included, is
		// reused, and the labels are made only for a lit scheduler, their
		// one reader: all of them in one string, worker i's "q<ID>-w<i>"
		// a substring of it.
		home := numa.NodeID(q.ID % e.machine.Topology().NodeCount)
		labels := e.forkLabels(q.ID)
		for i := 0; i < e.cfg.Workers; i++ {
			var w *worker
			if n := len(e.exited); n > 0 {
				w, e.exited = e.exited[n-1], e.exited[:n-1]
			} else {
				w = &worker{eng: e, pinnedNode: numa.NoNode}
			}
			w.id, w.query = i, q
			name := ""
			if labels != "" {
				name = labels[e.labelEnds[i]:e.labelEnds[i+1]]
			}
			w.thread = e.sched.Spawn(e.cfg.PID, name, w, sched.NearNode(home), sched.Gated(&q.gate))
		}
	}
	e.advance(q)
}

// forkLabels returns the thread labels of query id's workers as one
// string, "" for a dark scheduler: worker i's label "q<id>-w<i>" is
// labels[e.labelEnds[i]:e.labelEnds[i+1]].
func (e *Engine) forkLabels(id int) string {
	if !e.sched.Lit() {
		return ""
	}
	buf, ends := e.labelBuf[:0], append(e.labelEnds[:0], 0)
	for i := 0; i < e.cfg.Workers; i++ {
		buf = append(buf, 'q')
		buf = strconv.AppendInt(buf, int64(id), 10)
		buf = append(buf, "-w"...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		ends = append(ends, len(buf))
	}
	e.labelBuf, e.labelEnds = buf, ends
	return string(buf)
}

// advance plans and enqueues the next stage of q, skipping empty stages,
// and completes the query after the last one. The intermediates whose last
// reader was the stage that just drained go back to the pool first, so the
// next stage can draw their storage.
func (e *Engine) advance(q *Query) {
	q.bury(&e.pool)
	p := q.Plan
	for q.stage < len(p.Ops)+len(p.Stages) {
		var tasks []Task
		if i := q.stage; i < len(p.Ops) {
			op := &p.Ops[i]
			q.doom(i)
			tasks = opTable[op.Kind].lower(q, op)
			handOff(tasks)
		} else {
			tasks = p.Stages[i-len(p.Ops)](q)
		}
		q.stage++
		if len(tasks) == 0 {
			q.bury(&e.pool)
			continue
		}
		q.pending = len(tasks)
		for _, t := range tasks {
			d := e.pool.getDispatched()
			d.task, d.query = t, q
			e.enqueue(d)
		}
		return
	}
	q.done = true
	q.gate.Set(true)
	q.endCycles = e.machine.Now()
	// Wake blocked per-query workers so they observe completion and exit.
	e.sched.WakeAll(e.cfg.PID)
}

// enqueue places a task on the dispatch queue(s) and wakes blocked
// workers.
func (e *Engine) enqueue(d *dispatched) {
	d.start = e.machine.Now()
	switch {
	case e.cfg.Placement == PlacementOS:
		// Per-query dataflow: the owning query's threads consume it.
		d.query.taskQueue.PushBack(d)
		d.query.gate.Set(true)
	case d.task.PreferredNode() != numa.NoNode:
		e.nodeQueues[d.task.PreferredNode()].PushBack(d)
	default:
		e.queue.PushBack(d)
	}
	e.sched.WakeAll(e.cfg.PID)
}

// dispatch hands the next task to a worker, or nil when nothing is
// queued. Per-query workers only serve their own query, and the one that
// takes its last queued task shuts its gate; NUMA-aware workers drain
// their own node's queue first, then the global queue, then steal from
// other nodes (SQL Server's soft affinity).
func (e *Engine) dispatch(w *worker) *dispatched {
	if q := w.query; q != nil {
		d, _ := q.taskQueue.PopFront()
		q.gate.Set(q.taskQueue.Len() > 0)
		return d
	}
	if e.cfg.Placement == PlacementNUMAAware && w.pinnedNode != numa.NoNode {
		if d, ok := e.nodeQueues[w.pinnedNode].PopFront(); ok {
			return d
		}
		if d, ok := e.queue.PopFront(); ok {
			return d
		}
		for n := range e.nodeQueues {
			if d, ok := e.nodeQueues[n].PopFront(); ok {
				return d
			}
		}
		return nil
	}
	d, _ := e.queue.PopFront()
	return d
}

// taskFinished accounts a completed task and advances its query when the
// stage drains.
func (e *Engine) taskFinished(w *worker, d *dispatched) {
	e.TasksExecuted++
	if e.bus != nil {
		e.bus.Publish(obs.Event{
			Kind:   obs.KindTaskDone,
			Now:    e.machine.Now(),
			TID:    int64(w.thread.ID),
			Core:   -1,
			Start:  d.start,
			Dur:    e.machine.Now() - d.start,
			Label:  d.task.Op(),
			Tenant: e.busTenant,
		})
	}
	q := d.query
	e.pool.putDispatched(d)
	q.pending--
	if q.pending == 0 {
		if e.serverThread != nil {
			// The next stage's fan-out goes through the serial dataflow
			// claim.
			e.serverJobs.PushBack(serverJob{
				query: q, cycles: e.claimCycles,
			})
			e.sched.Wake(e.serverThread)
			return
		}
		e.advance(q)
	}
}

// Release drops one finished query from the engine's tracking list,
// returns its results' storage to the pool (its intermediates went back
// as their last readers finished) and recycles its body: the handle is
// dead from then on — only ID, Plan, Done and ElapsedCycles may still be
// read — and its maps, arenas and task buffers serve later queries. Workload drivers
// call it as soon as a client observes completion, which is what lets a
// steady stream of queries run out of recycled storage. Callers that read
// results after the fact use Drain instead, which never recycles anything.
// Release is idempotent: a second call on an already-released handle, even
// after its body serves another query, is a no-op, so a buffer can never
// reach the pool twice and be handed to two future queries at once.
func (e *Engine) Release(q *Query) {
	if q == nil || !q.done || q.released {
		return
	}
	q.released = true
	for i := range e.queries {
		if e.queries[i] == q {
			// slices.Delete zeroes the vacated tail slot, so the backing
			// array does not keep a released query reachable.
			e.queries = slices.Delete(e.queries, i, i+1)
			break
		}
	}
	q.freeResults(&e.pool)
	e.recycle(q)
}

// Drain removes finished queries from the engine's tracking list and
// returns them (workload bookkeeping between phases). Unlike Release, it
// does NOT recycle them: a query that is only drained keeps its body, so
// its results stay readable indefinitely. Only results do: an
// intermediate's storage went back to the pool when its last reader
// finished, and its name is unbound.
func (e *Engine) Drain() []*Query {
	var done, live []*Query
	for _, q := range e.queries {
		if q.done {
			done = append(done, q)
		} else {
			live = append(live, q)
		}
	}
	e.queries = live
	return done
}

// worker is the Runner behind each pool or per-query thread: it pulls
// tasks and steps them within the scheduler's budget.
type worker struct {
	eng        *Engine
	id         int
	thread     *sched.Thread
	cur        *dispatched
	pinnedNode numa.NodeID
	// query, when set, ties the worker to one query's dataflow
	// (MonetDB-style per-query threads); the worker exits when the query
	// completes. It is the handle: after Release it keeps reading done, so
	// a worker that wakes late exits and never dispatches from the body,
	// which by then may serve another query.
	query *Query
}

// Recycled implements sched.Recycler: a per-query worker off the exited
// list hands back the thread record it last ran as; a new one has none.
func (w *worker) Recycled() *sched.Thread { return w.thread }

// Run implements sched.Runner.
func (w *worker) Run(ctx *sched.ExecContext, budget uint64) (uint64, bool, bool) {
	var used uint64
	for used < budget {
		if w.cur == nil {
			if w.query != nil && w.query.done {
				// Dataflow finished: the thread exits and the record
				// waits for the next fork.
				w.query = nil
				w.eng.exited = append(w.eng.exited, w)
				return used, false, true
			}
			w.cur = w.eng.dispatch(w)
			if w.cur == nil {
				// Nothing to do: block until the engine wakes the pool.
				return used, used == 0, false
			}
		}
		u, done := w.cur.task.Step(ctx, budget-used)
		used += u
		if done {
			d := w.cur
			w.cur = nil
			w.eng.taskFinished(w, d)
			continue
		}
		if u == 0 {
			break
		}
	}
	return used, false, false
}
