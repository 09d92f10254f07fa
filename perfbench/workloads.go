package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"flexio/internal/core"
	"flexio/internal/datatype"
	"flexio/internal/hpio"
	"flexio/internal/mpiio"
)

// workload is one benchmark input family: the simulated world it runs on,
// the engine options and hints, and a seeded generator of per-call inputs.
type workload struct {
	name    string
	ranks   int
	perNode int   // ranks per simulated node
	cbNodes int   // cb_nodes hint (0 = every rank aggregates)
	collBuf int64 // cb_buffer_size hint (0 = default)
	opts    core.Options
	// integrity arms the wire and at-rest checksummed datapath.
	integrity bool
	write     bool
	// warmup calls run during set-up so caches fill and lazy state
	// (memo, persistent realms, pools) settles before timing; a few
	// calls' worth also keeps setup_s from resting on one or two samples.
	warmup int
	// counted is the fixed call count of the deterministic counts pass.
	counted int
	// file is the simulated file's name.
	file string
	// newInputs builds the input generator for one seed.
	newInputs func(seed int64) inputs
}

// inputs generates and checks the per-call inputs of one seeded run.
type inputs interface {
	// seedFile writes the file's initial contents during set-up.
	seedFile(e *env) error
	// views fills each rank's view (filetype, disp, memtype, count) for
	// call c; a nil filetype keeps the view already installed.
	views(c int, rk []rankIO)
	// fill prepares each rank's user buffer for call c.
	fill(c int, rk []rankIO)
	// verify checks the outcome of call c against the reference.
	verify(e *env, c int, rk []rankIO) error
}

// rankIO is one rank's side of one collective call.
type rankIO struct {
	ft    datatype.Type // filetype to install before the call; nil keeps the view
	disp  int64
	mt    datatype.Type
	count int64
	buf   []byte
	// segs lists the file bytes the call reads, in stream order (reads
	// only; the reference check walks them).
	segs []datatype.Seg
}

// mix64 is the splitmix64 finalizer: the benchmark's only source of
// derived seeds and reference bytes.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// seedMask is a per-seed byte XORed into written data, so the file image
// depends on the seed as well as on the layout.
func seedMask(seed int64) byte { return byte(mix64(uint64(seed))) }

var workloads = []*workload{hpioWrite(), hpioReadFresh(), ckptIntegrity()}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// ---------------------------------------------------------------------------
// hpio-write: steady HPIO interleaved write, same view every call.

func hpioWrite() *workload {
	return &workload{
		name:    "hpio-write",
		ranks:   16,
		perNode: 4,
		cbNodes: 4,
		collBuf: 256 << 10,
		opts:    core.Options{Persistent: true, Comm: core.Nonblocking, Method: mpiio.DataSieve},
		write:   true,
		warmup:  6,
		counted: 64,
		file:    "hpio-write.dat",
		newInputs: func(seed int64) inputs {
			return newHPIOWrite(seed, hpio.Pattern{
				Ranks: 16, RegionSize: 512, RegionCount: 512, Spacing: 256,
				MemNoncontig: true, MemGap: 64, NodeRanks: 4,
			})
		},
	}
}

// hpioWriteInputs alternates two data variants so consecutive calls leave
// distinguishable images.
type hpioWriteInputs struct {
	pat  hpio.Pattern
	bufs [2][][]byte // [variant][rank] user buffers
	refs [2][]byte   // [variant] expected file image
}

func newHPIOWrite(seed int64, pat hpio.Pattern) *hpioWriteInputs {
	in := &hpioWriteInputs{pat: pat}
	base := pat.Reference()
	for v := 0; v < 2; v++ {
		// The variants differ in every byte, so a call that silently
		// writes nothing leaves the previous call's image and fails.
		m := seedMask(seed) ^ byte(v*0xa5)
		in.bufs[v] = make([][]byte, pat.Ranks)
		for r := range in.bufs[v] {
			b := pat.FillBuffer(r)
			for i := range b {
				b[i] ^= m
			}
			in.bufs[v][r] = b
		}
		ref := bytes.Clone(base)
		stride := (pat.RegionSize + pat.Spacing) * int64(pat.Ranks)
		for r := 0; r < pat.Ranks; r++ {
			for i := int64(0); i < pat.RegionCount; i++ {
				off := pat.Disp + i*stride + int64(r)*(pat.RegionSize+pat.Spacing)
				for b := off; b < off+pat.RegionSize; b++ {
					ref[b] ^= m
				}
			}
		}
		in.refs[v] = ref
	}
	return in
}

func (in *hpioWriteInputs) seedFile(*env) error { return nil }

func (in *hpioWriteInputs) views(c int, rk []rankIO) {
	for r := range rk {
		if c == 0 {
			rk[r].ft, rk[r].disp = in.pat.Filetype(r)
			rk[r].mt, _ = in.pat.Memtype()
			rk[r].count = in.pat.RegionCount
		} else {
			rk[r].ft = nil
		}
	}
}

func (in *hpioWriteInputs) fill(c int, rk []rankIO) {
	for r := range rk {
		rk[r].buf = in.bufs[c%2][r]
	}
}

func (in *hpioWriteInputs) verify(e *env, c int, _ []rankIO) error {
	ref := in.refs[c%2]
	img := e.fs.Snapshot(e.wl.file, int64(len(ref)))
	if !bytes.Equal(img, ref) {
		return fmt.Errorf("call %d: file image differs from the hpio reference at byte %d", c, firstDiff(img, ref))
	}
	return nil
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// ---------------------------------------------------------------------------
// hpio-read-fresh: reads of a pre-written, cache-resident file through a
// fresh seeded view every call, cycling three datatype representations.

const (
	readFileSize = 8 << 20 // fits every aggregator's 16 MiB client cache
	shapeEnum    = 0       // enumerated hindexed, D = 1024 regions of 32-128 B
	shapeTiled   = 1       // succinct tiled region, D = 1
	shapeBytes   = 2       // MPI_BYTE view over a contiguous block
	numShapes    = 3
)

func hpioReadFresh() *workload {
	return &workload{
		name:    "hpio-read-fresh",
		ranks:   16,
		perNode: 4,
		opts:    core.Options{HeapMerge: true, Comm: core.Nonblocking, Method: mpiio.DataSieve},
		write:   false,
		warmup:  2 * numShapes,
		counted: 30,
		file:    "hpio-read.dat",
		newInputs: func(seed int64) inputs {
			return newReadFresh(seed, 16, readFileSize)
		},
	}
}

type readFreshInputs struct {
	seed  int64
	ranks int
	ref   []byte // the pre-written file image
	bufs  [][]byte
}

func newReadFresh(seed int64, ranks int, size int64) *readFreshInputs {
	in := &readFreshInputs{seed: seed, ranks: ranks, ref: make([]byte, size), bufs: make([][]byte, ranks)}
	s := mix64(uint64(seed))
	for i := 0; i < len(in.ref); i += 8 {
		v := mix64(s + uint64(i))
		for k := 0; k < 8 && i+k < len(in.ref); k++ {
			in.ref[i+k] = byte(v >> (8 * k))
		}
	}
	return in
}

// seedFile writes the reference image with independent contiguous writes,
// one block per rank.
func (in *readFreshInputs) seedFile(e *env) error {
	chunk := int64(len(in.ref)) / int64(in.ranks)
	return e.runRanks(func(r int, f *mpiio.File) error {
		data := in.ref[int64(r)*chunk : int64(r+1)*chunk]
		return f.WriteAt(int64(r)*chunk, data, datatype.Bytes(chunk), 1)
	})
}

func (in *readFreshInputs) views(c int, rk []rankIO) {
	rng := rand.New(rand.NewSource(int64(mix64(uint64(in.seed)<<20 + uint64(c)))))
	p := int64(in.ranks)
	size := int64(len(in.ref))
	switch c % numShapes {
	case shapeEnum:
		const d, slot = 1024, 160
		extent := d * p * slot
		base := rng.Int63n(size - extent)
		for r := range rk {
			lens := make([]int64, d)
			displs := make([]int64, d)
			segs := rk[r].segs[:0]
			var n int64
			for i := int64(0); i < d; i++ {
				blocks := 1 + rng.Int63n(4) // 32-128 B in 32 B elements
				l := blocks * 32
				off := (i*p+int64(r))*slot + rng.Int63n(slot-l+1)
				lens[i], displs[i] = blocks, off
				segs = append(segs, datatype.Seg{Off: base + off, Len: l})
				n += l
			}
			rk[r] = rankIO{
				ft:    datatype.Must(datatype.HIndexed(lens, displs, datatype.Bytes(32))),
				disp:  base,
				mt:    datatype.Bytes(n),
				count: 1,
				segs:  segs,
			}
		}
	case shapeTiled:
		region := 64 + rng.Int63n(449)
		spacing := rng.Int63n(region/2 + 1)
		k := (256 << 10) / region
		stride := p * (region + spacing)
		base := rng.Int63n(size - k*stride)
		for r := range rk {
			disp := base + int64(r)*(region+spacing)
			segs := rk[r].segs[:0]
			for j := int64(0); j < k; j++ {
				segs = append(segs, datatype.Seg{Off: disp + j*stride, Len: region})
			}
			rk[r] = rankIO{
				ft:    datatype.Must(datatype.Resized(datatype.Bytes(region), stride)),
				disp:  disp,
				mt:    datatype.Bytes(region * k),
				count: 1,
				segs:  segs,
			}
		}
	case shapeBytes:
		block := 2048 + rng.Int63n(4097)
		base := rng.Int63n(size - p*block)
		for r := range rk {
			disp := base + int64(r)*block
			rk[r] = rankIO{
				ft:    datatype.Bytes(1),
				disp:  disp,
				mt:    datatype.Bytes(block),
				count: 1,
				segs:  append(rk[r].segs[:0], datatype.Seg{Off: disp, Len: block}),
			}
		}
	}
}

func (in *readFreshInputs) fill(_ int, rk []rankIO) {
	for r := range rk {
		n := rk[r].mt.Size() * rk[r].count
		if int64(cap(in.bufs[r])) < n {
			in.bufs[r] = make([]byte, n)
		}
		b := in.bufs[r][:n]
		clear(b)
		rk[r].buf = b
	}
}

func (in *readFreshInputs) verify(_ *env, c int, rk []rankIO) error {
	for r := range rk {
		pos := int64(0)
		for _, s := range rk[r].segs {
			if !bytes.Equal(rk[r].buf[pos:pos+s.Len], in.ref[s.Off:s.End()]) {
				return fmt.Errorf("call %d rank %d: read of [%d,%d) differs from the reference", c, r, s.Off, s.End())
			}
			pos += s.Len
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// ckpt-integrity: the Figure 7 time-step checkpoint with the checksummed
// datapath armed.

const (
	ckptElem   = 32
	ckptElems  = 100
	ckptPoints = 512
	ckptSlots  = 16
)

func ckptIntegrity() *workload {
	return &workload{
		name:      "ckpt-integrity",
		ranks:     32,
		perNode:   4,
		cbNodes:   16,
		opts:      core.Options{Persistent: true, Align: 2 << 20, Method: mpiio.DataSieve},
		integrity: true,
		write:     true,
		warmup:    4,
		counted:   16,
		file:      "ckpt.dat",
		newInputs: func(seed int64) inputs { return newCkpt(seed, 32) },
	}
}

type ckptInputs struct {
	seed  int64
	ranks int
	elems [][]int64 // element indices each rank owns (round-robin)
	bufs  [][]byte
}

func newCkpt(seed int64, ranks int) *ckptInputs {
	in := &ckptInputs{seed: seed, ranks: ranks, elems: make([][]int64, ranks), bufs: make([][]byte, ranks)}
	for r := range in.elems {
		for e := int64(r); e < ckptElems; e += int64(ranks) {
			in.elems[r] = append(in.elems[r], e)
		}
		in.bufs[r] = make([]byte, int64(len(in.elems[r]))*ckptElem*ckptPoints)
	}
	return in
}

func (in *ckptInputs) seedFile(*env) error { return nil }

const (
	ckptSlotSize    = ckptElems * ckptElem
	ckptPointExtent = ckptSlots * ckptSlotSize
	ckptFileSize    = ckptPoints * ckptPointExtent
)

func (in *ckptInputs) views(c int, rk []rankIO) {
	disp := int64(c%ckptSlots) * ckptSlotSize
	for r := range rk {
		el := in.elems[r]
		lens := make([]int64, len(el))
		displs := make([]int64, len(el))
		for i, e := range el {
			lens[i], displs[i] = 1, e*ckptElem
		}
		pattern := datatype.Must(datatype.HIndexed(lens, displs, datatype.Bytes(ckptElem)))
		rk[r].ft = datatype.Must(datatype.Resized(pattern, ckptPointExtent))
		rk[r].disp = disp
		rk[r].mt = datatype.Bytes(int64(len(el)) * ckptElem)
		rk[r].count = ckptPoints
	}
}

// fill gives every call its own bytes: rank r's data for call c continues
// the hpio fill stream where call c-1 stopped, as Figure 7's time steps do.
func (in *ckptInputs) fill(c int, rk []rankIO) {
	m := seedMask(in.seed)
	for r := range rk {
		b := in.bufs[r]
		k0 := int64(c) * int64(len(b))
		for i := range b {
			b[i] = hpio.FillByte(r, k0+int64(i)) ^ m
		}
		rk[r].buf = b
	}
}

// verify checks the slot call c wrote: every rank's elements of every data
// point against the Figure 7 layout.
func (in *ckptInputs) verify(e *env, c int, rk []rankIO) error {
	img := e.fs.Snapshot(e.wl.file, ckptFileSize)
	slot := int64(c%ckptSlots) * ckptSlotSize
	for r := range rk {
		b := rk[r].buf
		k := 0
		for pt := int64(0); pt < ckptPoints; pt++ {
			for _, el := range in.elems[r] {
				off := pt*ckptPointExtent + slot + el*ckptElem
				if !bytes.Equal(img[off:off+ckptElem], b[k:k+ckptElem]) {
					return fmt.Errorf("call %d rank %d: point %d element %d differs from the Fig 7 reference", c, r, pt, el)
				}
				k += ckptElem
			}
		}
	}
	return nil
}
