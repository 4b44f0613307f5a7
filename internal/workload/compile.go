package workload

// Program compilation. A workload's reference stream is a deterministic
// pure function of (spec, seed, task label) — it never consults machine or
// kernel state (see program.go) — so the whole stream can be lowered once
// into a flat array of pre-planned ops (fused walker runs, pre-resolved
// service points, batched data references) and replayed any number of
// times. Replay eliminates the per-instruction probability draws, Zipf
// lookups and walker stepping that dominate the interpreter's cost, and a
// process-wide cache amortizes the one-time compile across gang members,
// fast/baseline comparison runs, and bench iterations — all of which
// execute the same (spec, seed) stream by construction.
//
// The compiler is seed-pure: it consumes randomness only through the
// interpreter it records, so a compiled replay is bit-identical to the
// interpreter by construction, and memoizing images by (spec, seed) can
// never change simulation results.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"tapeworm/internal/kernel"
	"tapeworm/internal/mem"
)

// opBytes is the size of one compiled op.
const opBytes = int(unsafe.Sizeof(kernel.CompiledOp{}))

// compileBudgetBytes bounds the op memory of one workload's fork tree.
// At 8 bytes per op it admits 6,291,456 ops: at scale 100 (the
// reproduction's own scale) mpeg_play, espresso, ousterhout, sdet and
// kenbus compile, while xlisp, eqntott and jpeg_play are refused and run
// through the interpreter.
const compileBudgetBytes = 48 << 20

// maxCompiledOps is the compile budget in ops.
const maxCompiledOps = compileBudgetBytes / opBytes

// ErrStreamTooLarge reports a workload whose stream exceeds the compile
// budget; run it through the interpreter instead.
var ErrStreamTooLarge = fmt.Errorf("workload: stream exceeds the %d-op (%d MiB) compile budget",
	maxCompiledOps, compileBudgetBytes>>20)

// image is the compiled form of one task's program: its op stream plus the
// images of the children it forks, in fork order. Images are immutable
// after compilation and shared by any number of concurrent replays.
type image struct {
	ops      []kernel.CompiledOp
	children []*image
}

// Compiled replays an image as a kernel.Program. The zero cursor starts at
// the beginning of the stream; each task (including every forked child)
// gets its own Compiled over the shared immutable image.
type Compiled struct {
	img    *image
	path   []int32 // fork-op args from the root image to img (never mutated)
	pos    int
	runOff int // instructions consumed of the run op at pos (Next-driven)
}

// Ops implements kernel.CompiledProgram.
func (c *Compiled) Ops() []kernel.CompiledOp { return c.img.ops }

// OpPos implements kernel.CompiledProgram.
func (c *Compiled) OpPos() (int, bool) { return c.pos, c.runOff == 0 }

// SeekOp implements kernel.CompiledProgram.
func (c *Compiled) SeekOp(pos int) { c.pos, c.runOff = pos, 0 }

// Cursor implements kernel.CursorProgram: it names this replay's position
// in the fork tree (the chain of fork-op args that produced its image,
// plus the op index) so an identical replay can be rebuilt later from the
// same (spec, seed) with NewPlannedAt. Mid-run-op positions are not
// resumable and report ok == false; the kernel only captures at op
// boundaries, where OpPos's aligned flag is true.
func (c *Compiled) Cursor() (kernel.ProgramCursor, bool) {
	if c.runOff != 0 {
		return kernel.ProgramCursor{}, false
	}
	path := make([]int32, len(c.path))
	copy(path, c.path)
	return kernel.ProgramCursor{Path: path, Pos: c.pos}, true
}

// Next implements kernel.Program.
func (c *Compiled) Next() kernel.Event {
	base, n, ev := c.NextRun(1)
	if n > 0 {
		return kernel.Event{Kind: kernel.EvRef, Ref: mem.Ref{VA: base, Kind: mem.IFetch}}
	}
	return ev
}

// NextRun implements kernel.BatchProgram by replaying the compiled ops.
// The flat event stream is byte-identical to the interpreter's at any max:
// run ops split but never merge, so boundaries the interpreter would emit
// are preserved.
func (c *Compiled) NextRun(max int) (mem.VAddr, int, kernel.Event) {
	ops := c.img.ops
	if c.pos >= len(ops) {
		return 0, 0, kernel.Event{Kind: kernel.EvExit}
	}
	op := &ops[c.pos]
	switch op.Kind {
	case kernel.OpRun:
		n := int(op.N) - c.runOff
		if n > max {
			n = max
		}
		base := op.VA + mem.VAddr(mem.WordBytes*c.runOff)
		c.runOff += n
		if c.runOff == int(op.N) {
			c.pos++
			c.runOff = 0
		}
		return base, n, kernel.Event{}
	case kernel.OpData:
		c.pos++
		return 0, 0, kernel.Event{Kind: kernel.EvRef, Ref: mem.Ref{VA: op.VA, Kind: op.Ref}}
	case kernel.OpSyscall:
		c.pos++
		return 0, 0, kernel.Event{Kind: kernel.EvSyscall, Service: kernel.ServiceID(op.Arg())}
	case kernel.OpFork:
		c.pos++
		arg := op.Arg()
		childPath := make([]int32, len(c.path)+1)
		copy(childPath, c.path)
		childPath[len(c.path)] = arg
		return 0, 0, kernel.Event{
			Kind:      kernel.EvFork,
			Child:     &Compiled{img: c.img.children[arg], path: childPath},
			ShareText: op.N != 0,
		}
	default: // OpExit is sticky, like the interpreter's exited state.
		return 0, 0, kernel.Event{Kind: kernel.EvExit}
	}
}

// chunkOps is the size of the fixed chunks a stream is collected in
// (128 KiB of ops). Collecting in chunks and copying once into an
// exact-length slice avoids append-doubling, which copies every op about
// twice and can hold up to twice the stream's size.
const chunkOps = 16 << 10

type opChunk [chunkOps]kernel.CompiledOp

// compiler holds the state of one Compile: the remaining op allowance
// across the whole fork tree and the chunks no image is filling.
type compiler struct {
	budget int
	free   []*opChunk
}

// opBuilder collects one image's ops in chunks borrowed from its compiler.
type opBuilder struct {
	c      *compiler
	chunks []*opChunk
	n      int // ops in the last chunk
}

func (b *opBuilder) add(op kernel.CompiledOp) {
	if len(b.chunks) == 0 || b.n == chunkOps {
		var ch *opChunk
		if f := b.c.free; len(f) > 0 {
			ch, b.c.free = f[len(f)-1], f[:len(f)-1]
		} else {
			ch = new(opChunk)
		}
		b.chunks = append(b.chunks, ch)
		b.n = 0
	}
	b.chunks[len(b.chunks)-1][b.n] = op
	b.n++
}

// finish copies the collected ops into an exact-length slice and returns
// the chunks to the compiler for the next image.
func (b *opBuilder) finish() []kernel.CompiledOp {
	var ops []kernel.CompiledOp
	if k := len(b.chunks); k > 0 {
		ops = make([]kernel.CompiledOp, 0, (k-1)*chunkOps+b.n)
		for _, ch := range b.chunks[:k-1] {
			ops = append(ops, ch[:]...)
		}
		ops = append(ops, b.chunks[k-1][:b.n]...)
	}
	b.c.free = append(b.c.free, b.chunks...)
	b.chunks = nil
	return ops
}

// compileImage records prog's full stream (and, recursively, the streams
// of the children it forks) into an image, charging every op to the
// compiler's budget.
func (c *compiler) compileImage(prog kernel.Program) (*image, error) {
	bp, ok := prog.(kernel.BatchProgram)
	if !ok {
		return nil, fmt.Errorf("workload: program %T is not batchable", prog)
	}
	img := &image{}
	b := opBuilder{c: c}
	for {
		if c.budget <= 0 {
			return nil, ErrStreamTooLarge
		}
		c.budget--
		base, n, ev := bp.NextRun(kernel.CompiledRunCap)
		if n > 0 {
			b.add(kernel.CompiledOp{Kind: kernel.OpRun, VA: base, N: uint16(n)})
			continue
		}
		switch ev.Kind {
		case kernel.EvRef:
			b.add(kernel.CompiledOp{Kind: kernel.OpData, VA: ev.Ref.VA, Ref: ev.Ref.Kind})
		case kernel.EvSyscall:
			b.add(kernel.ArgOp(kernel.OpSyscall, 0, int32(ev.Service)))
		case kernel.EvFork:
			child, err := c.compileImage(ev.Child)
			if err != nil {
				return nil, err
			}
			var share uint16
			if ev.ShareText {
				share = 1
			}
			b.add(kernel.ArgOp(kernel.OpFork, share, int32(len(img.children))))
			img.children = append(img.children, child)
		case kernel.EvExit:
			b.add(kernel.CompiledOp{Kind: kernel.OpExit})
			img.ops = b.finish()
			return img, nil
		default:
			return nil, fmt.Errorf("workload: unknown event kind %d while compiling", ev.Kind)
		}
	}
}

// compile lowers spec's reference stream into an image, returning it
// with its op count across the fork tree.
func compile(spec Spec, seed uint64) (*image, int, error) {
	prog, err := New(spec, seed)
	if err != nil {
		return nil, 0, err
	}
	c := compiler{budget: maxCompiledOps}
	img, err := c.compileImage(prog)
	if err != nil {
		return nil, 0, err
	}
	return img, maxCompiledOps - c.budget, nil
}

// Compile lowers spec's reference stream into a fresh compiled program,
// bypassing the cache. Returns ErrStreamTooLarge when the stream exceeds
// the compile budget.
func Compile(spec Spec, seed uint64) (*Compiled, error) {
	img, _, err := compile(spec, seed)
	if err != nil {
		return nil, err
	}
	return &Compiled{img: img}, nil
}

// --- Process-wide image cache ---

// maxCachedBytes bounds the op memory the compile cache holds: two
// budgets, enough for all eight plans at scale 1000 (36 MB) or every
// plan that compiles at scale 100 (91 MB). Sweeps revisit the same few
// (spec, seed) pairs thousands of times; the evaluation suite cycles
// through all eight workloads per experiment.
const maxCachedBytes = 2 * compileBudgetBytes

type cacheKey struct {
	spec Spec
	seed uint64
}

// cacheEntry is one (spec, seed) stream: its image once compiled, or the
// error that refused it. Refusals hold no ops and are never evicted, so
// an over-budget stream is attempted once per process.
type cacheEntry struct {
	once  sync.Once
	img   *image
	err   error
	bytes int    // op bytes held; set under cacheMu when admitted
	gen   uint64 // LRU clock, updated under cacheMu
}

var (
	cacheMu    sync.Mutex
	imageCache = map[cacheKey]*cacheEntry{}
	cacheGen   uint64
	cacheBytes int // sum of the admitted entries' bytes

	// compiles counts the streams the cache has compiled or refused.
	compiles atomic.Int64
)

// cachedImage memoizes Compile by (spec, seed). Concurrent requests for
// the same key compile once and share the immutable result; distinct keys
// compile in parallel.
func cachedImage(spec Spec, seed uint64) (*image, error) {
	key := cacheKey{spec: spec, seed: seed}
	cacheMu.Lock()
	e := imageCache[key]
	if e == nil {
		e = &cacheEntry{}
		imageCache[key] = e
	}
	cacheGen++
	e.gen = cacheGen
	cacheMu.Unlock()
	e.once.Do(func() {
		compiles.Add(1)
		img, ops, err := compile(spec, seed)
		e.img, e.err = img, err
		if err == nil {
			admit(e, ops*opBytes)
		}
	})
	return e.img, e.err
}

// admit charges a freshly compiled entry's bytes to the cache, evicting
// least-recently-used images until the cache fits maxCachedBytes again.
// An entry never evicts itself: one image is at most one budget.
func admit(e *cacheEntry, bytes int) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	e.bytes = bytes
	cacheBytes += bytes
	for cacheBytes > maxCachedBytes {
		var victimKey cacheKey
		var victim *cacheEntry
		// Generation numbers are unique, so the minimum is the same
		// victim at any iteration order; eviction never changes
		// simulation results either way (images are pure).
		//twvet:allow maporder — unique-minimum selection is order-insensitive
		for k, v := range imageCache {
			if v != e && v.bytes > 0 && (victim == nil || v.gen < victim.gen) {
				victimKey, victim = k, v
			}
		}
		delete(imageCache, victimKey)
		cacheBytes -= victim.bytes
	}
}

// NewPlanned returns the fastest available Program for (spec, seed): a
// replay of the cached compiled stream when it fits the op budget, else
// the interpreter. The emitted event stream is identical either way.
func NewPlanned(spec Spec, seed uint64) (kernel.Program, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	img, err := cachedImage(spec, seed)
	if err == ErrStreamTooLarge {
		return New(spec, seed)
	}
	if err != nil {
		return nil, err
	}
	return &Compiled{img: img}, nil
}

// NewPlannedAt rebuilds a compiled replay of (spec, seed) positioned at a
// cursor previously reported by Compiled.Cursor — the resume half of the
// kernel's mid-run checkpoint protocol. Cursors exist only for compiled
// replays, so a stream too large to compile is an error here, not an
// interpreter fallback: the interpreter cannot seek.
func NewPlannedAt(spec Spec, seed uint64, cur kernel.ProgramCursor) (kernel.Program, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	img, err := cachedImage(spec, seed)
	if err != nil {
		return nil, err
	}
	node := img
	for i, arg := range cur.Path {
		if arg < 0 || int(arg) >= len(node.children) {
			return nil, fmt.Errorf("workload: cursor path %v invalid at step %d for %s/seed %#x",
				cur.Path, i, spec.Name, seed)
		}
		node = node.children[arg]
	}
	if cur.Pos < 0 || cur.Pos > len(node.ops) {
		return nil, fmt.Errorf("workload: cursor op %d out of range [0,%d] for %s/seed %#x",
			cur.Pos, len(node.ops), spec.Name, seed)
	}
	path := make([]int32, len(cur.Path))
	copy(path, cur.Path)
	return &Compiled{img: node, path: path, pos: cur.Pos}, nil
}

// OpTree is a read-only view over one compiled task stream and the
// streams of the children it forks, for offline analyses (phase
// detection) that want the pre-planned ops without replaying them.
type OpTree struct {
	img *image
}

// Ops returns the node's op stream. The slice is shared and immutable.
func (t OpTree) Ops() []kernel.CompiledOp { return t.img.ops }

// NumChildren returns how many child streams this node forks.
func (t OpTree) NumChildren() int { return len(t.img.children) }

// Child returns the stream forked by the fork op whose Arg is i.
func (t OpTree) Child(i int) OpTree { return OpTree{img: t.img.children[i]} }

// PlannedOps exposes the cached compiled fork tree of (spec, seed).
// Returns ErrStreamTooLarge (wrapped by nothing) when the stream exceeds
// the compile budget, exactly as NewPlanned's fallback condition.
func PlannedOps(spec Spec, seed uint64) (OpTree, error) {
	if err := spec.Validate(); err != nil {
		return OpTree{}, err
	}
	img, err := cachedImage(spec, seed)
	if err != nil {
		return OpTree{}, err
	}
	return OpTree{img: img}, nil
}
