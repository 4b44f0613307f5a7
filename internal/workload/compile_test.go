package workload

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"tapeworm/internal/kernel"
	"tapeworm/internal/mem"
)

// flatEvent is one non-fetch element of a program's flattened event
// stream. Instruction fetches are compared as runs of consecutive words,
// split wherever either side splits them, so streams produced at
// different batch widths compare equal exactly when the underlying
// instruction/event sequence is identical.
type flatEvent struct {
	kind   kernel.EventKind
	va     mem.VAddr
	ref    mem.RefKind
	svc    kernel.ServiceID
	shared bool
}

// Driving modes for a stream besides a positive NextRun width.
const (
	driveNext  = 0  // Next alone
	driveMixed = -1 // Next and NextRun of varying widths, interleaved
)

// stream pulls a program's flattened event stream, descending into forked
// children depth-first (fork order is deterministic, so the flattening is
// too). Pulling instead of collecting keeps the comparison of paper-scale
// streams in constant memory.
type stream struct {
	tasks []kernel.Program // the running task, above the tasks that forked it
	width int              // NextRun width, or driveNext / driveMixed
	calls int              // driveMixed's call counter
	base  mem.VAddr        // next fetch of the pending run
	n     int              // fetches left in the pending run
	ev    flatEvent        // the pending event, when held
	held  bool             // whether ev is pending
}

func newStream(prog kernel.Program, width int) *stream {
	return &stream{tasks: []kernel.Program{prog}, width: width}
}

// fill pulls the next run or event unless one is pending, reporting false
// once the root task has exited.
func (s *stream) fill(t *testing.T) bool {
	if s.n > 0 || s.held {
		return true
	}
	if len(s.tasks) == 0 {
		return false
	}
	top := s.tasks[len(s.tasks)-1]
	width := s.width
	if width == driveMixed {
		if s.calls%3 != 0 {
			width = 5 + s.calls%60
		} else {
			width = driveNext
		}
		s.calls++
	}
	var ev kernel.Event
	if width == driveNext {
		ev = top.Next()
	} else {
		bp, ok := top.(kernel.BatchProgram)
		if !ok {
			t.Fatalf("program %T is not batchable", top)
		}
		var base mem.VAddr
		var n int
		if base, n, ev = bp.NextRun(width); n > 0 {
			s.base, s.n = base, n
			return true
		}
	}
	if ev.Kind == kernel.EvRef && ev.Ref.Kind == mem.IFetch {
		s.base, s.n = ev.Ref.VA, 1
		return true
	}
	s.held = true
	switch ev.Kind {
	case kernel.EvRef:
		s.ev = flatEvent{kind: kernel.EvRef, va: ev.Ref.VA, ref: ev.Ref.Kind}
	case kernel.EvSyscall:
		s.ev = flatEvent{kind: kernel.EvSyscall, svc: ev.Service}
	case kernel.EvFork:
		s.tasks = append(s.tasks, ev.Child)
		s.ev = flatEvent{kind: kernel.EvFork, shared: ev.ShareText}
	case kernel.EvExit:
		s.tasks = s.tasks[:len(s.tasks)-1]
		s.ev = flatEvent{kind: kernel.EvExit}
	default:
		t.Fatalf("unknown event kind %d", ev.Kind)
	}
	return true
}

// compareStreams pulls both streams to their ends in lockstep and fails
// at the first difference, counting instruction fetches as events.
func compareStreams(t *testing.T, name string, want, got *stream) {
	t.Helper()
	for i := 0; ; {
		wok, gok := want.fill(t), got.fill(t)
		if wok != gok {
			t.Fatalf("%s: stream lengths differ: interpreter ends %v, compiled ends %v, at event %d", name, !wok, !gok, i)
		}
		if !wok {
			return
		}
		switch {
		case want.n > 0 && got.n > 0:
			if want.base != got.base {
				t.Fatalf("%s: streams diverge at event %d: interpreter fetches %#x, compiled %#x", name, i, want.base, got.base)
			}
			k := min(want.n, got.n)
			want.base += mem.VAddr(mem.WordBytes * k)
			got.base += mem.VAddr(mem.WordBytes * k)
			want.n -= k
			got.n -= k
			i += k
		case want.n > 0 || got.n > 0 || want.ev != got.ev:
			t.Fatalf("%s: streams diverge at event %d: interpreter %+v (fetches %d at %#x), compiled %+v (fetches %d at %#x)",
				name, i, want.ev, want.n, want.base, got.ev, got.n, got.base)
		default:
			want.held, got.held = false, false
			i++
		}
	}
}

// TestCompiledStreamMatchesInterpreter checks byte-identity of the
// compiled replay against the interpreter across fork-tree shapes (single
// task, one-level, two-level trees) and batch widths, including the
// per-instruction Next path, over whole streams. mpeg_play at scale 100,
// the reproduction's own scale, is a multi-million-op stream that must
// fit the compile budget.
func TestCompiledStreamMatchesInterpreter(t *testing.T) {
	const seed = 1994
	inputs := []struct {
		name  string
		scale float64
	}{
		{"eqntott", 40000}, // small streams; sdet/kenbus still fork full trees
		{"mpeg_play", 40000},
		{"ousterhout", 40000},
		{"sdet", 40000},
		{"mpeg_play", 100},
	}
	for _, in := range inputs {
		spec, err := ByName(in.name, in.scale)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(spec, seed)
		if err != nil {
			t.Fatalf("%s@%g: compile: %v", in.name, in.scale, err)
		}
		for _, width := range []int{kernel.CompiledRunCap, 1, 7, 1024, driveNext} {
			want := newStream(MustNew(spec, seed), kernel.CompiledRunCap)
			got := newStream(&Compiled{img: c.img}, width)
			compareStreams(t, fmt.Sprintf("%s@%g/width %d", in.name, in.scale, width), want, got)
		}
	}
}

// TestCompiledMixedDriving interleaves Next and NextRun on the same
// replayer — the shape a traced task or instruction-limited run produces —
// and checks the flat stream still matches.
func TestCompiledMixedDriving(t *testing.T) {
	spec, err := ByName("eqntott", 40000)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7
	c, err := Compile(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	compareStreams(t, "mixed", newStream(MustNew(spec, seed), 64), newStream(c, driveMixed))
}

// TestCompiledOpIsEightBytes pins the op encoding the compile budget and
// the cache bound are sized by.
func TestCompiledOpIsEightBytes(t *testing.T) {
	if size := unsafe.Sizeof(kernel.CompiledOp{}); size != 8 {
		t.Fatalf("kernel.CompiledOp is %d bytes, want 8", size)
	}
}

// planAll plans every workload at scale and returns the images.
func planAll(t *testing.T, scale float64, seed uint64) []*image {
	t.Helper()
	var imgs []*image
	for _, spec := range Specs(scale) {
		p, err := NewPlanned(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		c, ok := p.(*Compiled)
		if !ok {
			t.Fatalf("%s@%g: NewPlanned returned %T, want *Compiled", spec.Name, scale, p)
		}
		imgs = append(imgs, c.img)
	}
	return imgs
}

// TestPlanCacheHoldsSuite checks the cache holds every plan of the
// evaluation suite at scale 1000: planning the suite again reuses each
// image without a compile.
func TestPlanCacheHoldsSuite(t *testing.T) {
	const seed = 1000
	first := planAll(t, 1000, seed)
	before := compiles.Load()
	again := planAll(t, 1000, seed)
	if n := compiles.Load() - before; n != 0 {
		t.Errorf("replanning the suite compiled %d streams, want 0", n)
	}
	for i, spec := range Specs(1000) {
		if first[i] != again[i] {
			t.Errorf("%s: replanning returned a different image", spec.Name)
		}
	}
}

// TestPlanCacheConcurrent plans the suite from several goroutines at
// once: each stream compiles at most once and every caller shares its
// image.
func TestPlanCacheConcurrent(t *testing.T) {
	const seed, workers = 4000, 4
	specs := Specs(4000)
	before := compiles.Load()
	imgs := make([][]*image, workers)
	var wg sync.WaitGroup
	for w := range imgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, spec := range specs {
				p, err := NewPlanned(spec, seed)
				if err != nil {
					t.Error(err)
					return
				}
				imgs[w] = append(imgs[w], p.(*Compiled).img)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := compiles.Load() - before; n > int64(len(specs)) {
		t.Errorf("%d workers planning %d streams compiled %d times", workers, len(specs), n)
	}
	for w := 1; w < workers; w++ {
		for i, spec := range specs {
			if imgs[w][i] != imgs[0][i] {
				t.Errorf("%s: workers %d and 0 got different images", spec.Name, w)
			}
		}
	}
}

// TestOverBudgetStreamCompiledOnce checks a refused stream is attempted
// once per process: NewPlanned falls back to the interpreter, and asking
// again after planning the whole suite (more streams than any count-bound
// cache of a few entries keeps) does not compile it again.
func TestOverBudgetStreamCompiledOnce(t *testing.T) {
	const seed = 99
	spec, err := ByName("xlisp", 100)
	if err != nil {
		t.Fatal(err)
	}
	plan := func() {
		t.Helper()
		p, err := NewPlanned(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := p.(*Compiled); ok {
			t.Fatal("xlisp@100 planned as a compiled replay, want the interpreter")
		}
	}
	plan()
	if _, err := PlannedOps(spec, seed); !errors.Is(err, ErrStreamTooLarge) {
		t.Fatalf("PlannedOps(xlisp@100) error = %v, want ErrStreamTooLarge", err)
	}
	planAll(t, 1000, seed)
	before := compiles.Load()
	plan()
	if n := compiles.Load() - before; n != 0 {
		t.Fatalf("replanning the refused stream compiled %d streams, want 0", n)
	}
}

// TestNewPlannedCacheSharesImages checks the cache returns independent
// replayers over one shared image, and that replays don't perturb each
// other.
func TestNewPlannedCacheSharesImages(t *testing.T) {
	spec, err := ByName("espresso", 40000)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewPlanned(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlanned(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	ca, ok := a.(*Compiled)
	if !ok {
		t.Fatalf("NewPlanned returned %T, want *Compiled", a)
	}
	cb := b.(*Compiled)
	if ca.img != cb.img {
		t.Fatal("cache did not share the compiled image")
	}
	// Drive one replayer forward; the other must be unaffected.
	ca.NextRun(64)
	if pos, _ := cb.OpPos(); pos != 0 {
		t.Fatal("advancing one replayer moved another's cursor")
	}
}

// TestOpPosAlignment checks OpPos reports misalignment while a run op is
// partially consumed and realigns at the boundary.
func TestOpPosAlignment(t *testing.T) {
	spec, err := ByName("eqntott", 40000)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	ops := c.Ops()
	if len(ops) == 0 || ops[0].Kind != kernel.OpRun {
		t.Skipf("stream does not start with a run op")
	}
	if ops[0].N > 1 {
		c.Next()
		if _, ok := c.OpPos(); ok {
			t.Fatal("OpPos claims alignment mid-run")
		}
		for i := 1; i < int(ops[0].N); i++ {
			c.Next()
		}
		if pos, ok := c.OpPos(); !ok || pos != 1 {
			t.Fatalf("OpPos = %d,%v after consuming the first run, want 1,true", pos, ok)
		}
	}
}
