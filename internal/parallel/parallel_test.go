package parallel

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	f := func(nRaw uint8, tRaw uint8) bool {
		n := int(nRaw)
		threads := 1 + int(tRaw)%16
		hits := make([]atomic.Int32, n)
		For(n, threads, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
		for i := range hits {
			if hits[i].Load() != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestForDegenerate(t *testing.T) {
	called := false
	For(0, 4, func(lo, hi int) { called = true })
	if called {
		t.Fatal("called for n=0")
	}
	For(5, 0, func(lo, hi int) {
		if lo != 0 || hi != 5 {
			t.Fatal("threads<=1 should run inline over the whole range")
		}
	})
}

func TestRangesProperties(t *testing.T) {
	f := func(nRaw uint8, kRaw uint8) bool {
		n := int(nRaw)
		k := int(kRaw)
		b := Ranges(n, k)
		if len(b) < 2 && n > 0 {
			return false
		}
		if b[0] != 0 || b[len(b)-1] != n {
			return false
		}
		for i := 1; i < len(b); i++ {
			if b[i] < b[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBalancedRangesBalanceAndCoverage(t *testing.T) {
	// skewed row weights: one heavy row among many light rows
	rows := 64
	ptr := make([]int, rows+1)
	for i := 0; i < rows; i++ {
		w := 1
		if i == 10 {
			w = 1000
		}
		ptr[i+1] = ptr[i] + w
	}
	b := BalancedRanges(rows, 8, ptr)
	if b[0] != 0 || b[len(b)-1] != rows {
		t.Fatalf("coverage: %v", b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] < b[i-1] {
			t.Fatalf("monotonicity: %v", b)
		}
	}
	// the heavy row must sit alone-ish: its range should hold most weight
	// and the partition must not put everything in one range.
	nonEmpty := 0
	for i := 1; i < len(b); i++ {
		if b[i] > b[i-1] {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Fatalf("no parallelism extracted: %v", b)
	}
	// degenerate inputs
	if b := BalancedRanges(0, 4, []int{0}); b[len(b)-1] != 0 {
		t.Fatal("rows=0")
	}
	uniform := make([]int, 11)
	for i := range uniform {
		uniform[i] = i
	}
	b2 := BalancedRanges(10, 3, uniform)
	if b2[0] != 0 || b2[len(b2)-1] != 10 {
		t.Fatalf("uniform coverage: %v", b2)
	}
}

func TestRunVisitsEveryRange(t *testing.T) {
	b := []int{0, 3, 3, 7, 10} // middle range empty
	var total, calls atomic.Int64
	Run(b, 2, func(part, lo, hi int) {
		calls.Add(1)
		total.Add(int64(hi - lo))
	})
	if got := total.Load(); got != 10 {
		t.Fatalf("covered %d elements", got)
	}
	if got := calls.Load(); got != 3 { // empty range skipped
		t.Fatalf("calls = %d", got)
	}
}

// sentinel is a typed panic payload; the hardening contract requires the
// original value to survive the goroutine hop inside WorkerPanic.Value so
// the sparse layer can distinguish its own abort sentinels from real crashes.
type sentinel struct{ n int }

func TestForWorkerPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		wp, ok := r.(WorkerPanic)
		if !ok {
			t.Fatalf("recovered %T (%v), want WorkerPanic", r, r)
		}
		s, ok := wp.Value.(sentinel)
		if !ok || s.n != 7 {
			t.Fatalf("payload %T (%v), want sentinel{7}", wp.Value, wp.Value)
		}
		if len(wp.Stack) == 0 {
			t.Fatal("worker stack not captured")
		}
	}()
	For(100, 4, func(lo, hi int) {
		if lo == 0 {
			panic(sentinel{n: 7})
		}
	})
	t.Fatal("For did not re-raise the worker panic")
}

func TestForInlinePanicUnwrapped(t *testing.T) {
	defer func() {
		r := recover()
		if _, ok := r.(WorkerPanic); ok {
			t.Fatal("inline panic must not be wrapped")
		}
		if s, ok := r.(sentinel); !ok || s.n != 3 {
			t.Fatalf("recovered %v, want sentinel{3}", r)
		}
	}()
	For(10, 1, func(lo, hi int) { panic(sentinel{n: 3}) })
	t.Fatal("inline For did not panic")
}

func TestForAllWorkersJoinBeforeRethrow(t *testing.T) {
	// Every non-panicking worker must finish its range even when another
	// worker panics: cooperative isolation, not hard abort.
	n := 64
	hits := make([]atomic.Int32, n)
	func() {
		defer func() { _ = recover() }()
		For(n, 8, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
			if lo == 0 {
				panic("boom")
			}
		})
	}()
	for i := range hits {
		if h := hits[i].Load(); h != 1 {
			t.Fatalf("element %d visited %d times", i, h)
		}
	}
}

func TestRunWorkerPanicPropagates(t *testing.T) {
	b := []int{0, 4, 8, 12, 16}
	defer func() {
		r := recover()
		wp, ok := r.(WorkerPanic)
		if !ok {
			t.Fatalf("recovered %T (%v), want WorkerPanic", r, r)
		}
		if s, ok := wp.Value.(sentinel); !ok || s.n != 2 {
			t.Fatalf("payload %v, want sentinel{2}", wp.Value)
		}
	}()
	Run(b, 2, func(part, lo, hi int) {
		if part == 2 {
			panic(sentinel{n: 2})
		}
	})
	t.Fatal("Run did not re-raise the worker panic")
}

// goid is the calling goroutine's id, read off its stack header
// ("goroutine 17 [running]:"): the tests below must tell the caller's ranges
// from a helper's.
func goid() string {
	var buf [64]byte
	return string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1])
}

// TestCallerPanicWaitsForHelpers: the caller is a worker, so a panic can
// come from its own range. It must be captured like a helper's — every other
// range still runs, every helper is joined — and only then re-raised as a
// WorkerPanic: a helper still running would write into scratch whose budget
// transaction the kernel's caller closes on the way out.
func TestCallerPanicWaitsForHelpers(t *testing.T) {
	caller := goid()
	release := make(chan struct{})
	var finished atomic.Int32
	var callerPanicked atomic.Bool
	b := Ranges(8, 8)
	defer func() {
		wp, ok := recover().(WorkerPanic)
		if !ok || wp.Value != (sentinel{n: 9}) || len(wp.Stack) == 0 {
			t.Fatalf("recovered %+v, want WorkerPanic{sentinel{9}} with a stack", wp)
		}
		if got := finished.Load(); got != 7 {
			t.Fatalf("%d of the 7 other ranges had finished when the panic was re-raised", got)
		}
	}()
	Run(b, 4, func(part, lo, hi int) {
		if goid() == caller {
			if callerPanicked.CompareAndSwap(false, true) {
				close(release)
				panic(sentinel{n: 9})
			}
		} else {
			<-release // a helper finishes nothing before the caller has panicked
		}
		finished.Add(1)
	})
	t.Fatal("Run did not re-raise the caller's panic")
}

// TestCallerCompletesWithoutHelpers: on one P a spawned helper cannot run
// before the caller blocks, which is the host waking the other core late. The
// caller must claim every range itself, place each output by range index as
// the serial loop does, and find the helpers with nothing left to do.
func TestCallerCompletesWithoutHelpers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	caller := goid()
	b := Ranges(64, 8)
	serial, forked := make([]int, 8), make([]int, 8)
	fill := func(out []int) func(part, lo, hi int) {
		return func(part, lo, hi int) {
			if id := goid(); id != caller {
				t.Errorf("range %d ran on goroutine %s, not the caller's", part, id)
			}
			for i := lo; i < hi; i++ {
				out[part] += i * i
			}
		}
	}
	Run(b, 1, fill(serial))
	Run(b, 4, fill(forked))
	for i := range serial {
		if serial[i] != forked[i] {
			t.Fatalf("outputs %v differ from the serial %v", forked, serial)
		}
	}
	hits := 0
	For(64, 4, func(lo, hi int) {
		if goid() != caller {
			t.Errorf("For part [%d,%d) ran off the caller", lo, hi)
		}
		hits += hi - lo
	})
	if hits != 64 {
		t.Fatalf("For covered %d of 64", hits)
	}
}

// TestOneWorkerSectionIsAPlainCall: a section sized at one worker — every
// small query — touches no WaitGroup, channel or goroutine and allocates
// nothing. Its bodies see no more goroutines than there were before it: a
// goroutine an earlier test left behind may exit meanwhile, so only a rise
// says the section started one.
func TestOneWorkerSectionIsAPlainCall(t *testing.T) {
	b := Ranges(100, 1)
	sum, before, most := 0, 0, 0
	body := func(lo, hi int) {
		sum += hi - lo
		most = max(most, runtime.NumGoroutine())
	}
	fn := func(_, lo, hi int) { body(lo, hi) }
	allocs := testing.AllocsPerRun(100, func() {
		before, most = runtime.NumGoroutine(), 0
		For(100, 1, body)
		Run(b, 1, fn)
		Run(b, 4, fn) // one range: nothing to share
		if most > before {
			t.Fatalf("%d goroutines during a one-worker section, %d before", most, before)
		}
	})
	if allocs != 0 {
		t.Fatalf("one-worker For+Run allocated %v times", allocs)
	}
	if sum == 0 {
		t.Fatal("bodies did not run")
	}
}

func TestRunSerialPanicUnwrapped(t *testing.T) {
	defer func() {
		if _, ok := recover().(WorkerPanic); ok {
			t.Fatal("serial panic must not be wrapped")
		}
	}()
	Run([]int{0, 5}, 1, func(part, lo, hi int) { panic("serial") })
	t.Fatal("serial Run did not panic")
}

func TestWorkerPanicError(t *testing.T) {
	cases := []struct {
		val  any
		want string
	}{
		{val: "boom", want: "parallel: worker panic: boom"},
		{val: sentinel{}, want: "parallel: worker panic: non-string panic value"},
	}
	for _, c := range cases {
		if got := (WorkerPanic{Value: c.val}).Error(); got != c.want {
			t.Errorf("Error() = %q, want %q", got, c.want)
		}
	}
}
