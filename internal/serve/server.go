package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// Server is the sweep job coordinator. It owns no simulation: grids
// submitted by clients expand into single-seed runs that pull-based
// workers lease, execute and complete, and the server merges completed
// results back into jobs — including the per-seed shard merge of
// aggregate points — exactly as the in-process engine would.
//
// Deduplication happens at two layers. In flight, runs are singleflight
// by content address: points shared by concurrent jobs (or repeated
// within one job's seed set) attach as waiters to one run and all
// receive its result. At rest, completed results persist in the Store,
// so a re-submitted or overlapping grid is answered at submission time
// without touching the pool.
//
// Failure semantics mirror the engine's first-error abort, scoped per
// job: a worker-reported error fails every job waiting on that run,
// cancels the jobs' other pending runs, and answers subsequent renewals
// of their in-flight leases with StatusGone so workers abandon them
// mid-point. A lease that is neither renewed nor completed within its
// TTL is reclaimed and the point re-leased — worker loss delays a job,
// never wedges it. Workers piggyback mid-point progress checkpoints on
// their renewals, so a re-leased point resumes where its dead worker
// left off instead of restarting cold.
//
// With AttachJournal, accepted jobs and delivered rows are also
// recorded in a durable journal; a restarted server replays it, rebuilds
// every job, and re-queues unfinished points against the store's dedup —
// server death delays a job exactly like worker death does.
type Server struct {
	// LeaseTTL is the worker lease deadline (renewals reset it). The
	// zero value means 30s.
	LeaseTTL time.Duration
	// RetryMS is the poll interval the server suggests to idle workers
	// and warm-checkpoint waiters. The zero value means 100ms.
	RetryMS int64
	// Logf, when set, receives one line per protocol event.
	Logf func(format string, args ...any)

	store   *Store
	journal *Journal
	now     func() time.Time // test seam; time.Now otherwise

	mu        sync.Mutex
	jobs      map[string]*job
	runs      map[string]*run // live (pending or leased) runs by address
	queue     []*run          // FIFO of pending runs; may hold stale entries
	leases    map[uint64]*run
	warm      map[string]*warmSlot // in-flight warm builds by address
	nextJob   uint64
	nextLease uint64
	nextToken uint64
	draining  bool
}

// NewServer returns a server backed by the given store (which may be
// memory-only, see NewMemStore).
func NewServer(store *Store) *Server {
	return &Server{
		store:  store,
		now:    time.Now,
		jobs:   make(map[string]*job),
		runs:   make(map[string]*run),
		leases: make(map[uint64]*run),
		warm:   make(map[string]*warmSlot),
	}
}

// taskRef names one output slot of a job: pointIdx indexes the job's
// points, shardIdx the seed within a sharded point (-1 for a plain
// single-seed point).
type taskRef struct {
	job      *job
	pointIdx int
	shardIdx int
}

const (
	runPending = iota
	runLeased
	runDone
)

// run is the unit of leasing: one executable single-seed point, plus
// every job output slot waiting on it. Runs are singleflight by
// address — a point two jobs need executes once.
type run struct {
	addr     string
	point    sweep.Point
	state    int
	lease    uint64
	deadline time.Time
	waiters  []taskRef
	// progress is the latest mid-point checkpoint a worker piggybacked
	// on a renewal (or handed back with a released lease). A re-lease
	// ships it so the next worker resumes instead of restarting cold.
	// Entries replace only on a higher instruction count and are
	// dropped on completion or cancellation — the mutable, in-memory
	// contrast to the immutable result store: progress is a hint worth
	// at most one TTL of work, never a value anyone depends on.
	progress       []byte
	progressInstrs uint64
}

// warmSlot tracks an in-flight warm-prefix build. Completed warm
// checkpoints live in the store (a zero-length entry means "halted
// inside the prefix: run cold"), so slots exist only between handing a
// build to a worker and its upload. A slot whose deadline passes is
// rebuilt by the next requester; should the original build still land,
// it is accepted anyway — checkpoints are deterministic bytes, so
// duplicate builders are wasteful, never wrong.
type warmSlot struct {
	token    uint64
	deadline time.Time
}

// job is one submitted grid: its expanded points, the layout of its
// output rows, partial results, and the append-only stream log.
type job struct {
	id        string
	points    []sweep.Point
	seedsOf   [][]uint64      // per point; nil for single-seed points
	rowBase   []int           // first output row of each point
	shardSims [][]*sim.Result // per sharded point, by seed index
	totalRows int
	rowsLeft  int
	log       []StreamEntry
	notify    chan struct{} // closed and replaced on every append
	finished  bool
	errmsg    string
}

// Handler returns the server's HTTP interface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/lease", s.handleLease)
	mux.HandleFunc("POST /v1/renew", s.handleRenew)
	mux.HandleFunc("POST /v1/release", s.handleRelease)
	mux.HandleFunc("POST /v1/complete", s.handleComplete)
	mux.HandleFunc("POST /v1/warm", s.handleWarm)
	mux.HandleFunc("POST /v1/warm/complete", s.handleWarmComplete)
	return mux
}

// Drain stops leasing new work and waits for every outstanding lease to
// complete, expire, or be cancelled — the graceful-shutdown path
// cmd/pbsweep's serve mode takes on SIGINT/SIGTERM.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	for {
		s.mu.Lock()
		s.reclaim(s.now())
		n := len(s.leases)
		s.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Server) leaseTTL() time.Duration {
	if s.LeaseTTL > 0 {
		return s.LeaseTTL
	}
	return 30 * time.Second
}

func (s *Server) retryMS() int64 {
	if s.RetryMS > 0 {
		return s.RetryMS
	}
	return 100
}

// buildJob expands a grid into a job skeleton: points, per-point seed
// sets, and the fixed output-row layout. It touches no server state, so
// submission and journal replay build byte-identical layouts from one
// grid.
func buildJob(g sweep.Grid) (*job, error) {
	pts, err := g.Points()
	if err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return nil, errors.New("serve: grid expanded to no runnable points")
	}
	j := &job{
		points:  pts,
		seedsOf: make([][]uint64, len(pts)),
		rowBase: make([]int, len(pts)),
		notify:  make(chan struct{}),
	}
	j.shardSims = make([][]*sim.Result, len(pts))
	for i, p := range pts {
		j.rowBase[i] = j.totalRows
		if !p.Sharded() {
			j.totalRows++
			continue
		}
		seeds := p.Key.Seeds.Seeds()
		if len(seeds) == 0 {
			return nil, fmt.Errorf("serve: point %s has a malformed seed set", p)
		}
		j.seedsOf[i] = seeds
		j.shardSims[i] = make([]*sim.Result, len(seeds))
		j.totalRows += len(seeds) + 1 // per-seed rows, then the aggregate row
	}
	j.rowsLeft = j.totalRows
	return j, nil
}

// maxRequestBody bounds every JSON request body the server reads. The
// largest legitimate body is a renew or release carrying a progress
// checkpoint: about 744 KB of JSON, a 559 KB checkpoint in base64. Its
// size is set by the predictor tables, not by the workload, scale or
// core width (measured over every workload, both predictors, scale 1
// and 32, 8-wide). Grids, leases, results and functional warm-prefix
// checkpoints are a few KB at most. 4 MiB leaves room for larger
// predictor configurations and long sampled runs' window populations.
const maxRequestBody = 4 << 20

// decodeRequest decodes a JSON request body of at most maxRequestBody
// bytes into v. On failure it answers the request itself — 413 for an
// oversized body, 400 for a malformed one — and returns false.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		http.Error(w, fmt.Sprintf("serve: request body exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
	} else {
		http.Error(w, fmt.Sprintf("serve: bad request: %v", err), http.StatusBadRequest)
	}
	return false
}

// handleSubmit expands a grid into a job. Store hits resolve
// immediately (their rows stream before the response returns); misses
// attach to singleflight runs, enqueueing new ones. With a journal
// attached, the submission is durable before it is acknowledged.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if req.Grid.CaptureProb {
		// Captured value streams are large and deliberately excluded from
		// memoization in-process; a shared store must not carry them
		// either. Table III runs stay on the batch engine.
		http.Error(w, "serve: capture_prob grids are batch-only (value streams are not served)", http.StatusBadRequest)
		return
	}
	j, err := buildJob(req.Grid)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	s.mu.Lock()
	s.nextJob++
	j.id = "j" + strconv.FormatUint(s.nextJob, 10)
	s.jobs[j.id] = j
	if s.journal != nil {
		// The submission record must be durable before any of its row
		// entries (journal order is replay order) and before the client
		// learns the job ID.
		g := req.Grid
		if err := s.journal.Append(JournalEntry{T: journalJob, Job: j.id, Grid: &g}); err != nil {
			s.logf("serve: journal: %v", err)
		}
	}
	cached, scheduled := s.resolveJob(j)
	s.mu.Unlock()
	s.logf("serve: job %s: %d points, %d rows, %d cached, %d scheduled", j.id, len(j.points), j.totalRows, cached, scheduled)

	writeJSON(w, JobResponse{ID: j.id, Rows: j.totalRows, Points: len(j.points), Cached: cached, Runs: scheduled})
}

// resolveJob (mu held) resolves every output row of j not already in
// its log: store hits deliver immediately (in point order), misses
// attach the job as a waiter to singleflight runs. It finishes the job
// if nothing is left. Shared by submission (empty log) and journal
// recovery (log prefilled by replay).
func (s *Server) resolveJob(j *job) (cached, scheduled int) {
	if j.finished {
		return 0, 0
	}
	delivered := make(map[int]bool, len(j.log))
	for _, le := range j.log {
		if !le.Done {
			delivered[le.Pos] = true
		}
	}
	for i, p := range j.points {
		if !p.Sharded() {
			if delivered[j.rowBase[i]] {
				continue
			}
			if s.resolveUnit(p, taskRef{j, i, -1}) {
				cached++
			} else {
				scheduled++
			}
			continue
		}
		seeds := j.seedsOf[i]
		allRows := true
		for si, seed := range seeds {
			if delivered[j.rowBase[i]+si] {
				continue
			}
			allRows = false
			if s.resolveUnit(p.Shard(seed), taskRef{j, i, si}) {
				cached++
			} else {
				scheduled++
			}
		}
		// Every shard row was already delivered (replayed) but the
		// aggregate row was not: the predecessor crashed between the last
		// shard and the merge. Emit it now; when instead some shard
		// resolves above, deliver() emits the aggregate as usual.
		if allRows && !delivered[j.rowBase[i]+len(seeds)] && shardsComplete(j.shardSims[i]) {
			agg := sweep.NewAggregate(seeds, j.shardSims[i])
			s.emitRow(j, j.rowBase[i]+len(seeds), sweep.Result{Point: p, Agg: agg}.Record())
		}
	}
	if j.rowsLeft == 0 && !j.finished {
		s.finishJob(j, "")
	}
	return cached, scheduled
}

func shardsComplete(sims []*sim.Result) bool {
	for _, sr := range sims {
		if sr == nil {
			return false
		}
	}
	return true
}

// resolveUnit (mu held) resolves one executable unit against the two
// dedup layers: a store hit delivers ref's row immediately and reports
// true; a miss attaches ref to the in-flight singleflight run for the
// point, enqueueing a new one if needed.
func (s *Server) resolveUnit(p sweep.Point, ref taskRef) bool {
	if res, err := s.loadResult(p); err == nil {
		s.deliver(ref, res)
		return true
	}
	// A missing — or corrupt, which falls through and re-simulates —
	// store entry schedules a run.
	addr := Addr("result", p.Canonical())
	ru := s.runs[addr]
	if ru == nil || ru.state == runDone {
		ru = &run{addr: addr, point: p, state: runPending}
		s.runs[addr] = ru
		s.queue = append(s.queue, ru)
	}
	ru.waiters = append(ru.waiters, ref)
	return false
}

// loadResult fetches and decodes a point's result from the store.
func (s *Server) loadResult(p sweep.Point) (*sim.Result, error) {
	data, ok := s.store.Get(Addr("result", p.Canonical()))
	if !ok || len(data) == 0 {
		return nil, fmt.Errorf("result for %s missing from store", p)
	}
	var pr PointResult
	if err := json.Unmarshal(data, &pr); err != nil {
		return nil, fmt.Errorf("result for %s corrupt in store: %w", p, err)
	}
	return pr.simResult(), nil
}

// AttachJournal opens the durable job journal at path, replays whatever
// a predecessor recorded — finished jobs reconstruct their streams for
// exactly-once client resume, open jobs re-resolve against the store
// and re-queue their unfinished points — and attaches the journal so
// this server's own decisions are recorded. Call once, before serving
// traffic.
func (s *Server) AttachJournal(path string) error {
	jn, entries, err := OpenJournal(path)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal != nil {
		jn.Close()
		return errors.New("serve: journal already attached")
	}
	// Replay with the journal detached: replayed emissions are already
	// in the file and must not be re-journaled.
	s.replay(entries)
	s.journal = jn
	for _, j := range s.jobsInOrder() {
		if j.finished {
			continue
		}
		cached, scheduled := s.resolveJob(j)
		s.logf("serve: journal: job %s recovered: %d/%d rows already streamed, %d cached, %d re-queued",
			j.id, len(j.log), j.totalRows, cached, scheduled)
	}
	return nil
}

// replay (mu held, journal detached) reconstructs jobs from journal
// entries. Row content is recomputed from the store: a completion is
// persisted before its row is emitted (and emitted before it is
// journaled), so every journaled row's result is durably present — and
// rows are deterministic marshalings of deterministic results, so the
// rebuilt bytes equal the originals and resumed client streams see the
// identical entries.
func (s *Server) replay(entries []JournalEntry) {
	for _, e := range entries {
		switch e.T {
		case journalJob:
			if e.Grid == nil || s.jobs[e.Job] != nil {
				continue
			}
			j, err := buildJob(*e.Grid)
			if err != nil {
				s.logf("serve: journal: job %s unrecoverable: %v", e.Job, err)
				continue
			}
			j.id = e.Job
			if n, ok := jobSeq(e.Job); ok && n > s.nextJob {
				s.nextJob = n
			}
			s.jobs[j.id] = j
		case journalRow:
			j := s.jobs[e.Job]
			if j == nil || j.finished {
				continue
			}
			if err := s.replayRow(j, e); err != nil {
				// The journal promised this row to clients; a job that
				// cannot reproduce its promised stream fails rather than
				// silently renumbering it.
				s.finishJob(j, fmt.Sprintf("journal replay: %v", err))
			}
		case journalDone:
			if j := s.jobs[e.Job]; j != nil {
				s.finishJob(j, e.Err)
			}
		}
	}
}

// replayRow (mu held) re-emits one journaled row from the store.
func (s *Server) replayRow(j *job, e JournalEntry) error {
	if e.Seq != len(j.log) {
		return fmt.Errorf("row seq %d does not follow log length %d", e.Seq, len(j.log))
	}
	if e.Pos < 0 || e.Pos >= j.totalRows {
		return fmt.Errorf("row pos %d outside the %d-row layout", e.Pos, j.totalRows)
	}
	// The owning point: the last rowBase at or before pos.
	i := sort.Search(len(j.rowBase), func(i int) bool { return j.rowBase[i] > e.Pos }) - 1
	p := j.points[i]
	if !p.Sharded() {
		res, err := s.loadResult(p)
		if err != nil {
			return err
		}
		s.emitRow(j, e.Pos, sweep.Result{Point: p, Sim: res}.Record())
		return nil
	}
	seeds := j.seedsOf[i]
	if off := e.Pos - j.rowBase[i]; off < len(seeds) {
		res, err := s.loadResult(p.Shard(seeds[off]))
		if err != nil {
			return err
		}
		j.shardSims[i][off] = res
		s.emitRow(j, e.Pos, sweep.Result{Point: p.Shard(seeds[off]), Sim: res}.Record())
		return nil
	}
	// The aggregate row. Journal order guarantees the shard rows came
	// first, but load any straggler defensively.
	for si, sr := range j.shardSims[i] {
		if sr == nil {
			res, err := s.loadResult(p.Shard(seeds[si]))
			if err != nil {
				return err
			}
			j.shardSims[i][si] = res
		}
	}
	s.emitRow(j, e.Pos, sweep.Result{Point: p, Agg: sweep.NewAggregate(seeds, j.shardSims[i])}.Record())
	return nil
}

// jobsInOrder (mu held) returns jobs sorted by submission sequence, so
// recovery re-queues work in the order clients submitted it.
func (s *Server) jobsInOrder() []*job {
	out := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool {
		na, _ := jobSeq(out[a].id)
		nb, _ := jobSeq(out[b].id)
		if na != nb {
			return na < nb
		}
		return out[a].id < out[b].id
	})
	return out
}

// jobSeq parses the numeric sequence out of a "jN" job ID.
func jobSeq(id string) (uint64, bool) {
	num, ok := strings.CutPrefix(id, "j")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(num, 10, 64)
	return n, err == nil
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	var st JobStatus
	if j != nil {
		st = JobStatus{ID: j.id, Rows: j.totalRows, Emitted: len(j.log), Done: j.finished, Error: j.errmsg}
	}
	s.mu.Unlock()
	if j == nil {
		http.Error(w, "serve: no such job", http.StatusNotFound)
		return
	}
	writeJSON(w, st)
}

// handleStream replays a job's log from the requested sequence number
// as NDJSON and then follows it live, flushing per entry, until the
// terminal Done entry is sent or the client goes away. A disconnect
// affects only this stream: the job runs on, and a reconnect with
// from=<next seq> resumes exactly-once delivery.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		http.Error(w, "serve: no such job", http.StatusNotFound)
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			http.Error(w, "serve: bad from", http.StatusBadRequest)
			return
		}
		from = v
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := from
	for {
		s.mu.Lock()
		var batch []StreamEntry
		if next < len(j.log) {
			batch = j.log[next:len(j.log):len(j.log)]
		}
		finished := j.finished
		notify := j.notify
		s.mu.Unlock()
		for _, e := range batch {
			if err := enc.Encode(e); err != nil {
				return
			}
			next++
			if e.Done {
				if fl != nil {
					fl.Flush()
				}
				return
			}
		}
		if fl != nil && len(batch) > 0 {
			fl.Flush()
		}
		if finished {
			// The caller already consumed the terminal entry in an earlier
			// stream; nothing more will ever arrive.
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	now := s.now()
	s.mu.Lock()
	s.reclaim(now)
	var ru *run
	if !s.draining {
		for len(s.queue) > 0 {
			cand := s.queue[0]
			s.queue = s.queue[1:]
			if cand.state != runPending || len(cand.waiters) == 0 {
				continue // reclaimed elsewhere, cancelled, or already done
			}
			ru = cand
			break
		}
	}
	if ru == nil {
		s.mu.Unlock()
		writeJSON(w, LeaseResponse{Status: StatusIdle, RetryMS: s.retryMS()})
		return
	}
	ru.state = runLeased
	s.nextLease++
	ru.lease = s.nextLease
	ru.deadline = now.Add(s.leaseTTL())
	s.leases[ru.lease] = ru
	resp := LeaseResponse{Status: StatusPoint, Lease: ru.lease, Point: &ru.point, TTLMS: s.leaseTTL().Milliseconds()}
	point := ru.point
	if len(ru.progress) > 0 {
		// Ship the predecessor's progress: the new worker resumes at
		// this instruction count instead of restarting cold.
		resp.Checkpoint = ru.progress
		resp.Instrs = ru.progressInstrs
	}
	s.mu.Unlock()
	if resp.Instrs > 0 {
		s.logf("serve: lease %d -> %s (%s) resumes @%d", resp.Lease, point, req.Worker, resp.Instrs)
	} else {
		s.logf("serve: lease %d -> %s (%s)", resp.Lease, point, req.Worker)
	}
	writeJSON(w, resp)
}

func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req RenewRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	now := s.now()
	s.mu.Lock()
	s.reclaim(now)
	ru := s.leases[req.Lease]
	// A run whose every waiter vanished (all its jobs failed) is
	// cancelled: tell the worker to stop burning cycles on it.
	if ru == nil || len(ru.waiters) == 0 {
		s.mu.Unlock()
		writeJSON(w, RenewResponse{Status: StatusGone})
		return
	}
	ru.deadline = now.Add(s.leaseTTL())
	var progressed uint64
	if len(req.Checkpoint) > 0 && req.Instrs > ru.progressInstrs {
		// Replace-on-higher-count: a stale renewal (delayed, duplicated,
		// or from a worker that fell behind) never regresses progress.
		ru.progress = req.Checkpoint
		ru.progressInstrs = req.Instrs
		progressed = req.Instrs
	}
	point := ru.point
	s.mu.Unlock()
	if progressed > 0 {
		s.logf("serve: progress %s @%d", point, progressed)
	}
	writeJSON(w, RenewResponse{Status: StatusOK, TTLMS: s.leaseTTL().Milliseconds()})
}

// handleRelease hands a lease back voluntarily — the graceful half of
// lease expiry, used by draining workers. The point returns to the
// queue with the released checkpoint as its progress, so the next
// worker continues instead of restarting.
func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req ReleaseRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	now := s.now()
	s.mu.Lock()
	s.reclaim(now)
	ru := s.leases[req.Lease]
	if ru == nil {
		s.mu.Unlock()
		writeJSON(w, ReleaseResponse{Status: StatusGone})
		return
	}
	delete(s.leases, req.Lease)
	ru.lease = 0
	if len(req.Checkpoint) > 0 && req.Instrs > ru.progressInstrs {
		ru.progress = req.Checkpoint
		ru.progressInstrs = req.Instrs
	}
	if len(ru.waiters) == 0 {
		ru.state = runDone
		ru.progress, ru.progressInstrs = nil, 0
		delete(s.runs, ru.addr)
	} else {
		ru.state = runPending
		s.queue = append(s.queue, ru)
		s.logf("serve: lease %d on %s released @%d; re-queueing", req.Lease, ru.point, ru.progressInstrs)
	}
	s.mu.Unlock()
	writeJSON(w, ReleaseResponse{Status: StatusOK})
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if req.Error == "" && req.Result == nil {
		http.Error(w, "serve: completion carries neither result nor error", http.StatusBadRequest)
		return
	}
	addr := Addr("result", req.Point.Canonical())
	s.mu.Lock()
	ru := s.leases[req.Lease]
	if ru == nil || ru.addr != addr {
		// The lease expired (and may have been re-leased) or its job was
		// cancelled. The result is still a valid, deterministic completion
		// of the point, so accept it by address if the run is still live.
		ru = s.runs[addr]
	} else {
		delete(s.leases, req.Lease)
	}
	if ru == nil || ru.state == runDone {
		s.mu.Unlock()
		// Persist even an orphaned success: the work is done, let the
		// store remember it. (A duplicated completion delivery lands
		// here too; Put is first-write-wins, so it is a no-op.)
		if req.Error == "" && req.Result != nil {
			if data, err := json.Marshal(req.Result); err == nil {
				s.store.Put(addr, data)
			}
		}
		writeJSON(w, CompleteResponse{Status: StatusGone})
		return
	}
	if ru.lease != 0 {
		delete(s.leases, ru.lease)
		ru.lease = 0
	}
	ru.state = runDone
	// Progress checkpoints are worth nothing once the point is done;
	// drop the bytes with the run.
	ru.progress, ru.progressInstrs = nil, 0
	delete(s.runs, ru.addr)
	waiters := ru.waiters
	ru.waiters = nil
	if req.Error != "" {
		msg := fmt.Sprintf("%s: %s", ru.point, req.Error)
		for _, ref := range waiters {
			s.failJob(ref.job, msg)
		}
		s.mu.Unlock()
		s.logf("serve: run %s failed: %s", ru.point, req.Error)
		writeJSON(w, CompleteResponse{Status: StatusOK})
		return
	}
	// Persist before delivering: a journaled row entry implies its
	// result is durably in the store, which is what lets a restarted
	// server rebuild the row byte-for-byte.
	if data, err := json.Marshal(req.Result); err == nil {
		s.store.Put(ru.addr, data)
	}
	res := req.Result.simResult()
	for _, ref := range waiters {
		s.deliver(ref, res)
	}
	s.mu.Unlock()
	writeJSON(w, CompleteResponse{Status: StatusOK})
}

func (s *Server) handleWarm(w http.ResponseWriter, r *http.Request) {
	var req WarmRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	addr := Addr("warm", req.Point.Canonical())
	if data, ok := s.store.Get(addr); ok {
		if len(data) == 0 {
			writeJSON(w, WarmResponse{Status: StatusCold})
		} else {
			writeJSON(w, WarmResponse{Status: StatusReady, Data: data})
		}
		return
	}
	now := s.now()
	s.mu.Lock()
	slot := s.warm[addr]
	if slot != nil && now.Before(slot.deadline) {
		s.mu.Unlock()
		writeJSON(w, WarmResponse{Status: StatusWait, RetryMS: s.retryMS()})
		return
	}
	// No build in flight (or the builder's deadline lapsed): hand the
	// build to this requester.
	s.nextToken++
	token := s.nextToken
	s.warm[addr] = &warmSlot{token: token, deadline: now.Add(s.leaseTTL())}
	s.mu.Unlock()
	s.logf("serve: warm build %s -> token %d", req.Point, token)
	writeJSON(w, WarmResponse{Status: StatusBuild, Token: token})
}

func (s *Server) handleWarmComplete(w http.ResponseWriter, r *http.Request) {
	var req WarmCompleteRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	addr := Addr("warm", req.Point.Canonical())
	s.mu.Lock()
	slot := s.warm[addr]
	// Accept any upload, current token or stale: checkpoints are
	// deterministic, so every builder of this warm point produced the
	// same bytes. Errors just clear the slot; the next requester
	// retries the build (and its point will carry the error to its job
	// if the failure is real).
	if slot != nil {
		delete(s.warm, addr)
	}
	s.mu.Unlock()
	switch {
	case req.Error != "":
		s.logf("serve: warm build %s failed: %s", req.Point, req.Error)
	case req.Halted:
		s.store.Put(addr, nil)
	default:
		s.store.Put(addr, req.Data)
	}
	writeJSON(w, CompleteResponse{Status: StatusOK})
}

// reclaim (mu held) returns expired leases to the queue, or drops them
// entirely when every waiter's job has since failed.
func (s *Server) reclaim(now time.Time) {
	for id, ru := range s.leases {
		if !ru.deadline.Before(now) {
			continue
		}
		delete(s.leases, id)
		ru.lease = 0
		if len(ru.waiters) == 0 {
			// Cancelled while leased: the run dies here, and its progress
			// checkpoint — now orphaned — goes with it.
			ru.state = runDone
			ru.progress, ru.progressInstrs = nil, 0
			delete(s.runs, ru.addr)
			continue
		}
		s.logf("serve: lease %d on %s expired; re-queueing (progress @%d)", id, ru.point, ru.progressInstrs)
		ru.state = runPending
		s.queue = append(s.queue, ru)
	}
}

// deliver (mu held) records one completed unit in a job, emitting its
// row — and, when it completes a sharded point's seed set, the merged
// aggregate row — and finishing the job when every row is out.
func (s *Server) deliver(ref taskRef, res *sim.Result) {
	j := ref.job
	if j.finished {
		return
	}
	p := j.points[ref.pointIdx]
	if ref.shardIdx < 0 {
		s.emitRow(j, j.rowBase[ref.pointIdx], sweep.Result{Point: p, Sim: res}.Record())
	} else {
		seeds := j.seedsOf[ref.pointIdx]
		j.shardSims[ref.pointIdx][ref.shardIdx] = res
		s.emitRow(j, j.rowBase[ref.pointIdx]+ref.shardIdx, sweep.Result{Point: p.Shard(seeds[ref.shardIdx]), Sim: res}.Record())
		if shardsComplete(j.shardSims[ref.pointIdx]) {
			agg := sweep.NewAggregate(seeds, j.shardSims[ref.pointIdx])
			s.emitRow(j, j.rowBase[ref.pointIdx]+len(seeds), sweep.Result{Point: p, Agg: agg}.Record())
		}
	}
	if j.rowsLeft == 0 {
		s.finishJob(j, "")
	}
}

// emitRow (mu held) appends one record row to the job's stream log and
// journals the delivery.
func (s *Server) emitRow(j *job, pos int, rec sweep.Record) {
	row, err := json.Marshal(rec)
	if err != nil {
		// A Record is a plain struct of scalars; marshal cannot fail.
		// Keep the job consistent anyway.
		s.failJob(j, fmt.Sprintf("marshal record: %v", err))
		return
	}
	e := StreamEntry{Seq: len(j.log), Pos: pos, Row: row}
	j.log = append(j.log, e)
	j.rowsLeft--
	if s.journal != nil {
		if err := s.journal.Append(JournalEntry{T: journalRow, Job: j.id, Seq: e.Seq, Pos: e.Pos}); err != nil {
			s.logf("serve: journal: %v", err)
		}
	}
	close(j.notify)
	j.notify = make(chan struct{})
}

// finishJob (mu held) appends the terminal stream entry.
func (s *Server) finishJob(j *job, errmsg string) {
	if j.finished {
		return
	}
	j.finished = true
	j.errmsg = errmsg
	j.log = append(j.log, StreamEntry{Seq: len(j.log), Done: true, Rows: j.totalRows, Err: errmsg})
	if s.journal != nil {
		if err := s.journal.Append(JournalEntry{T: journalDone, Job: j.id, Seq: len(j.log) - 1, Err: errmsg}); err != nil {
			s.logf("serve: journal: %v", err)
		}
	}
	close(j.notify)
	j.notify = make(chan struct{})
}

// failJob (mu held) fails a job and cancels its share of outstanding
// work: pending runs it alone was waiting on are dropped, and leased
// runs left without waiters answer their next renewal with StatusGone.
func (s *Server) failJob(j *job, errmsg string) {
	if j.finished {
		return
	}
	s.finishJob(j, errmsg)
	for addr, ru := range s.runs {
		kept := ru.waiters[:0]
		for _, ref := range ru.waiters {
			if ref.job != j {
				kept = append(kept, ref)
			}
		}
		ru.waiters = kept
		if len(ru.waiters) == 0 && ru.state == runPending {
			ru.state = runDone
			ru.progress, ru.progressInstrs = nil, 0
			delete(s.runs, addr)
		}
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
