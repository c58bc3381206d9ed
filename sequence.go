package grb

import (
	"slices"
	"sync"

	"github.com/grblas/grb/internal/obsv"
	"github.com/grblas/grb/internal/sparse"
)

// This file is the object core Matrix and Vector share: the paper defines an
// object as the sequence of method calls made on it (§III), with execution
// errors parked on it until somebody looks (§V). The sequence is a list of
// typed operation nodes; the drain loop, the step that runs one node, error
// parking, Wait and context switching are written here once.

// storage is an object's completed state: a *sparse.CSR[T] or a
// *sparse.Vec[T]. Every step installs a fresh one, at most writing into the
// value array of the vector it supersedes (reuses).
type storage interface{ NNZ() int }

// kind is the handful of places where a matrix and a vector differ. Its
// implementations (matrixKind, vectorKind) are empty structs, so the choice
// is made at compile time and costs nothing per object.
type kind[T any, S storage, U any] interface {
	spanName() string // the drain's span: "matrix", "vector"
	mergeOp() string  // the tuple-merge step's event name
	shape(S) (rows, cols int)
	inBounds(op string, cur S, t U) error
	mergeTuples(S, []U) (S, error)
	debugCheck(S)
	maskFits(maskSnap, S) error
	accumMerge(old, t S, accum func(T, T) T, e sparse.Exec) S
	maskApply(old, z S, mask maskSnap, replace bool, e sparse.Exec) S
	holds(S) *sparse.Holds // nil for a matrix, which never lends
	superseded(old, res S) // grbcheck: poison old if res took its storage
	settle(S) S            // the storage a reader indexes: a matrix's rows built
}

// maskSnap is a mask operand's completed state plus the descriptor's reading
// of it. A matrix-output operation masks with M, a vector-output one with V;
// RowAssign and ColAssign carry V on a matrix output and apply it to the one
// row they touch themselves.
type maskSnap struct {
	M                      *sparse.CSR[bool]
	V                      *sparse.Vec[bool]
	Structural, Complement bool
}

func (k maskSnap) matrix() sparse.Mask {
	return sparse.Mask{M: k.M, Structural: k.Structural, Complement: k.Complement}
}

func (k maskSnap) vector() sparse.VMask {
	return sparse.VMask{M: k.V, Structural: k.Structural, Complement: k.Complement}
}

// yield says how much of C⟨M, replace⟩ = C ⊙ T a node's kernel has already
// done, and so what is left for the step.
type yield uint8

const (
	// yieldsT: the kernel returns the operation's result T; the step
	// accumulates it into C, then writes back under the mask.
	yieldsT yield = iota
	// yieldsZ: the kernel took the accumulator itself and returns Z = C ⊙ T
	// (the assign family, whose accumulation is region-shaped, and the
	// matrix-vector products, whose pull can write Z without storing T); the
	// step writes back under the mask.
	yieldsZ
	// yieldsC: the kernel returns the object's next state — Build, Resize,
	// the tuple merge, and kernels that mask as they go.
	yieldsC
)

// opNode is one deferred method call. It holds everything the call decided
// when it was made, so the step that runs it reads nothing but the node:
// inputs of other domains cannot be fields of a type generic in T alone, so
// they stay captured by kernel, which computes from those snapshots only.
type opNode[T any, S storage] struct {
	op string      // the obsv event's Op: "MxM", "Matrix.Build", ...
	ev *obsv.Event // call-time half of the event; nil when no sink was observing
	// ctx is where an operation's step executes: its budget and its
	// cancellation. The object's own methods — Build, Resize, merged element
	// updates — put data in rather than compute; their nodes leave it nil
	// and run unbudgeted and uncancelled.
	ctx     *Context
	old     S // the output's completed state at the call
	mask    maskSnap
	replace bool
	accum   func(T, T) T
	yields  yield
	// label names the route the kernel reported for the event; nil for
	// kernels that plan none.
	label  func(sparse.Route) string
	kernel func(sparse.Exec) (S, error)
	lent   lends // the call's lends on its operands, old's among them
	// local: the kernel reads each operand only at the position it writes
	// (the element-wise operations), so an output that is also an operand
	// can still be written in place.
	local bool
}

// sequence is the state behind a Matrix or a Vector. mu guards every field;
// the *Locked methods expect it held.
type sequence[T any, S storage, U any, K kind[T, S, U]] struct {
	mu      sync.Mutex
	init    bool
	ctx     *Context
	cur     S               // completed state as of the last drain
	pending []opNode[T, S]  // deferred operations, in call order
	tuples  []U             // deferred setElement/removeElement updates
	derr    *Error          // parked (deferred) execution error, §V
	errmsg  string          // implementation-defined GrB_error string
	seq     obsv.SeqID      // open sequence span during a drain, else 0
	tx      sparse.BudgetTx // the running step's budget transaction
}

// context resolves the object's execution context.
func (s *sequence[T, S, U, K]) context() (*Context, error) { return resolveCtx(s.ctx) }

// ownContext is the context pointer as stored (nil = top level), for the
// shared-context rule of §IV.
func (s *sequence[T, S, U, K]) ownContext() *Context { return s.ctx }

// switchContext moves the object into ctx. The object is completed first so
// no deferred work crosses contexts.
func (s *sequence[T, S, U, K]) switchContext(ctx *Context) error {
	if ctx == nil {
		return errf(NullPointer, "SwitchContext: nil context")
	}
	if ctx.isFreed() {
		return errf(UninitializedObject, "SwitchContext: freed context")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.materializeLocked(); err != nil {
		return err
	}
	s.ctx = ctx
	return nil
}

// wait forces the sequence into the requested state; see WaitMode.
func (s *sequence[T, S, U, K]) wait(mode WaitMode) error {
	if mode != Complete && mode != Materialize {
		return errf(InvalidValue, "Wait: invalid mode %d", int(mode))
	}
	if _, err := s.context(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.materializeLocked()
	if mode == Materialize {
		return err
	}
	return nil
}

func (s *sequence[T, S, U, K]) errorString() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.errmsg
}

// snapshot completes the object and returns its storage pinned, for a holder
// that keeps it (Dup, Resize, an immediate-mode kernel's input): it is never
// written again. Every deferred step and Wait installs a fresh snapshot, so
// per-CSR caches (the memoized transpose, sparse.TransposeCached) stay
// coherent across mutate→Wait boundaries without any explicit invalidation —
// a stale cache can only live on a superseded snapshot, which readers that
// obtained it earlier may still use safely.
func (s *sequence[T, S, U, K]) snapshot() (S, error) {
	cur, h, err := s.lend()
	h.Pin()
	h.Release()
	return cur, err
}

// lend completes the object and returns its storage with one reader counted
// on it, for a frame's operand (released when its node has run or is
// dropped) or a synchronous reader (released when it has read). The empty
// matrix NewMatrix leaves unbuilt is built first (settle).
func (s *sequence[T, S, U, K]) lend() (S, *sparse.Holds, error) { return s.lendAs(true) }

// lendOld is lend for an operation's output, whose old state only the step
// reads — it settles what it reads (matrixKind) — and for a reader of shape
// and count: an unbuilt empty matrix stays unbuilt.
func (s *sequence[T, S, U, K]) lendOld() (S, *sparse.Holds, error) { return s.lendAs(false) }

func (s *sequence[T, S, U, K]) lendAs(settle bool) (S, *sparse.Holds, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.materializeLocked(); err != nil {
		var none S
		return none, nil, err
	}
	var k K
	if settle {
		s.cur = k.settle(s.cur)
	}
	h := k.holds(s.cur)
	h.Lend()
	return s.cur, h, nil
}

// dims returns the object's shape in program order: a pending sequence may
// include a Resize, so it is settled first.
func (s *sequence[T, S, U, K]) dims() (rows, cols int, err error) {
	if _, err := s.context(); err != nil {
		return 0, 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) > 0 {
		if err := s.materializeLocked(); err != nil {
			return 0, 0, err
		}
	}
	var k K
	rows, cols = k.shape(s.cur)
	return rows, cols, nil
}

// update queues one setElement/removeElement tuple. In nonblocking mode the
// updates batch lazily and merge at the next drain.
func (s *sequence[T, S, U, K]) update(op string, t U) error {
	ctx, err := s.context()
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.derr != nil {
		return s.derr
	}
	if len(s.pending) > 0 { // settle a possible pending Resize
		if err := s.materializeLocked(); err != nil {
			return err
		}
	}
	var k K
	if err := k.inBounds(op, s.cur, t); err != nil {
		return err
	}
	s.tuples = append(s.tuples, t)
	if ctx.Mode() == Blocking {
		return s.materializeLocked()
	}
	return nil
}

// resetLocked abandons the deferred sequence (releasing its lends) and any
// parked error and installs cur; the zero S (Free) leaves the object without
// storage.
func (s *sequence[T, S, U, K]) resetLocked(cur S) {
	for i := range s.pending {
		s.pending[i].lent.release()
	}
	s.cur, s.pending, s.tuples, s.derr, s.errmsg = cur, nil, nil, nil, ""
}

// submit appends the operation a frame validated to the sequence, as a node
// whose kernel yields y.
func (s *sequence[T, S, U, K]) submit(f *frame, old S, y yield, accum func(T, T) T,
	kernel func(sparse.Exec) (S, error)) error {
	var k K
	if err := k.maskFits(f.mask, old); err != nil {
		f.lent.release()
		return err
	}
	return s.push(f.ctx.Mode(), opNode[T, S]{
		op: f.op, ev: f.ev, ctx: f.ctx, old: old, mask: f.mask,
		replace: f.d.Replace, accum: accum, yields: y, label: f.label, kernel: kernel,
		lent: f.lent, local: f.local,
	})
}

// push appends a node to the sequence. A parked error short-circuits (§V);
// in blocking mode the node, and anything deferred before it, runs before
// returning.
func (s *sequence[T, S, U, K]) push(mode Mode, n opNode[T, S]) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.derr != nil {
		n.lent.release()
		return s.derr
	}
	s.pending = append(s.pending, n)
	if mode == Blocking {
		return s.materializeLocked()
	}
	return nil
}

// materializeLocked runs the deferred sequence — pending nodes in call
// order, then the pending element updates as one more node — and returns the
// parked execution error, if any. When a sink is observing, the drain runs
// under a sequence span whose id (s.seq) attributes each kernel event to it.
// Each node is zeroed as it runs and the list is cut back to its start, so a
// drained step and the operand snapshots it captured become unreachable while
// the backing array is reused.
func (s *sequence[T, S, U, K]) materializeLocked() error {
	if len(s.pending) > 0 || len(s.tuples) > 0 {
		var k K
		span := obsv.SeqBegin(k.spanName())
		s.seq = span.ID()
		pending := s.pending
		s.pending = pending[:0]
		steps := len(pending)
		for i := range pending {
			n := pending[i]
			pending[i] = opNode[T, S]{}
			s.stepLocked(&n, nil)
		}
		if tuples := s.tuples; len(tuples) > 0 {
			s.tuples = nil
			n := opNode[T, S]{op: k.mergeOp(), yields: yieldsC}
			if obsv.Active() {
				rows, cols := k.shape(s.cur)
				n.ev = (&obsv.Event{Op: n.op, Kind: "merge"}).
					A(rows, cols, s.cur.NNZ()).B(len(tuples), 1, len(tuples))
			}
			s.stepLocked(&n, tuples)
			steps++
		}
		s.seq = 0
		span.End(steps)
	}
	if s.derr != nil {
		return s.derr
	}
	return nil
}

// stepLocked executes one node: C⟨M, replace⟩ = C ⊙ T, with the part the
// node's kernel did not do itself. The execution environment is built here,
// at drain time, so budget charges and cancellation reflect execution order
// (§IV/§V); the step boundary is a cancellation point for every kind of
// operation. runStep isolates the whole step: a panic anywhere inside —
// kernel, user operator, worker goroutine — parks an execution error instead
// of crashing the process. The object keeps its previous storage, torn if
// the step wrote into it (reuses); every read returns the parked error until
// Clear or Free (§V leaves an output undefined after an execution error).
//
// The tuple merge is the one node without a kernel: it folds tuples into the
// current storage, which a closure could only do at the price of an
// allocation per drain.
func (s *sequence[T, S, U, K]) stepLocked(n *opNode[T, S], tuples []U) {
	var k K
	e := n.ctx.exec(&s.tx)
	if s.reuses(n) {
		e.Spare = n.old
	}
	if n.ev != nil {
		e.Route = new(sparse.Route) // the kernel reports its own decisions
	}
	x := obsv.Begin(n.ev, s.seq)
	res, err := runStep(n.op, func() (t S, err error) {
		if e.Cancel != nil && e.Cancel.Canceled() {
			return t, sparse.ErrCanceled
		}
		if n.kernel != nil {
			t, err = n.kernel(e)
		} else if err = sparse.MergeSite().Check(); err == nil {
			t, err = k.mergeTuples(s.cur, tuples)
		}
		if err != nil {
			return t, err
		}
		switch n.yields {
		case yieldsT:
			t = k.accumMerge(n.old, t, n.accum, e)
			fallthrough
		case yieldsZ:
			t = k.maskApply(n.old, t, n.mask, n.replace, e)
		case yieldsC:
		}
		return t, nil
	})
	e.Close()
	if e.Route != nil {
		n.ev.WithThreads(max(1, e.Route.Workers)) // a kernel with no parallel section reports none
		if n.label != nil {
			n.ev.Route, n.ev.RouteReason = n.label(*e.Route), e.Route.Reason.String()
		}
	}
	out := 0
	if err == nil {
		out = res.NNZ()
	}
	x.End(out, err)
	if err != nil {
		s.parkLocked(err)
	} else {
		k.debugCheck(res)
		if e.Spare != nil {
			k.superseded(n.old, res)
		}
		k.holds(res).Claim(k.holds(s.cur))
		s.cur = res
	}
	n.lent.release()
}

// reuses decides whether n's kernel may write into the storage of the
// state it supersedes (DESIGN.md, "Writing into superseded storage"): the
// storage is the object's own and still its state; n's lends are its only
// readers — the output's own, and at most an operand's of a position-local
// kernel; and nothing after the kernel reads it: no mask unless the kernel
// consumes it (yieldsC), not even the complemented empty one whose
// write-back returns old, and no accumulation of T into it. A mask that is
// the output is lent beside it, so its step reuses only through a
// position-local kernel; those yield T, and a masked step that yields T
// never reuses: the mask is never written while it is read.
func (s *sequence[T, S, U, K]) reuses(n *opNode[T, S]) bool {
	var k K
	h := k.holds(n.old)
	lent := 0
	for _, l := range n.lent {
		if l == h {
			lent++
		}
	}
	return n.kernel != nil && lent > 0 && h.Sole(lent) && h == k.holds(s.cur) && (lent == 1 || n.local) &&
		(n.yields == yieldsC || n.mask.M == nil && n.mask.V == nil && !n.mask.Complement) &&
		(n.yields != yieldsT || n.accum == nil)
}

// lends is what one call lent: its output, two inputs and its mask at most.
type lends [4]*sparse.Holds

// add records a lend; a frame has four operand slots, so there is room.
func (l *lends) add(h *sparse.Holds) {
	if h != nil {
		l[slices.Index(l[:], nil)] = h
	}
}

// release returns every lend, once.
func (l *lends) release() {
	for _, h := range l {
		h.Release()
	}
	*l = lends{}
}

// parkLocked records a deferred execution error on the object (§V): the
// first error of a sequence sticks and is reported by subsequent method
// calls or a materializing wait.
func (s *sequence[T, S, U, K]) parkLocked(err error) {
	if s.derr == nil {
		if e, ok := err.(*Error); ok {
			s.derr = e
		} else {
			s.derr = errf(Panic, "%v", err)
		}
		s.errmsg = s.derr.Error()
	}
}
