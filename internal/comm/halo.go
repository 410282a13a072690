package comm

import (
	"fmt"
	"sync"
	"time"

	"meshgnn/internal/tensor"
)

// HaloPlan describes one rank's halo exchange pattern. For every
// neighboring rank it lists which local rows to send and which halo rows
// the incoming buffer fills. Plans are symmetric across a pair of ranks:
// the global node IDs behind SendIdx on rank r (toward s) and RecvIdx on
// rank s (from r) are identical and identically ordered, which both the
// forward exchange and its adjoint rely on.
type HaloPlan struct {
	// Neighbors lists the neighboring ranks in ascending order.
	Neighbors []int
	// SendIdx[k] are the local row indices whose values are sent to
	// Neighbors[k], ordered by global node ID.
	SendIdx [][]int
	// RecvIdx[k] are the halo row indices filled by the buffer received
	// from Neighbors[k], ordered by the same global node IDs.
	RecvIdx [][]int
	// MaxSendCount is the maximum SendIdx length over all ranks and
	// neighbors, used by the uniform-buffer AllToAll mode. Populated by
	// FinalizePlan.
	MaxSendCount int

	// finalizeOnce makes the FinalizePlan write one-shot: plans hang off
	// the shared per-rank graph.Local, and concurrent serving sessions
	// each run their own collective setup over the same plans. The
	// reduction is deterministic — every finalize computes the identical
	// count — so first-write-wins is exact, and Once's memory ordering
	// publishes it to every later finalizer.
	finalizeOnce sync.Once
}

// TotalHalo returns the number of halo rows the plan fills.
func (p *HaloPlan) TotalHalo() int {
	n := 0
	for _, idx := range p.RecvIdx {
		n += len(idx)
	}
	return n
}

// maxLocalSend returns the largest per-neighbor send count on this rank.
func (p *HaloPlan) maxLocalSend() int {
	m := 0
	for _, idx := range p.SendIdx {
		if len(idx) > m {
			m = len(idx)
		}
	}
	return m
}

// FinalizePlan computes the global MaxSendCount via an AllReduce, mirroring
// the setup step a uniform-buffer AllToAll implementation performs once.
//
// Every caller participates in the collective unconditionally — skipping
// it on an already-finalized plan would deadlock any world in which the
// ranks disagree about what they observed — but only the first finalize
// writes the (deterministic, identical) result, so concurrent collective
// worlds sharing one plan are safe.
func FinalizePlan(c *Comm, p *HaloPlan) {
	buf := []float64{float64(p.maxLocalSend())}
	c.AllReduceMax(buf)
	p.finalizeOnce.Do(func() { p.MaxSendCount = int(buf[0]) })
}

// ExchangeMode selects the halo exchange implementation. The paper's
// Sec. III compares four modes; its Send-Recv mode (custom isend/irecv
// with each neighbor) puts the same payloads to the same ranks as N-A2A,
// and the two differ only by MPI implementation, which no fabric here
// models — so N-A2A stands for both.
type ExchangeMode int

const (
	// NoExchange skips the halo exchange entirely: the inconsistent
	// baseline built on conventional NMP layers.
	NoExchange ExchangeMode = iota
	// AllToAllMode exchanges uniform-size buffers among all R ranks,
	// including "dummy" traffic between ranks that share no halo nodes.
	AllToAllMode
	// NeighborAllToAll passes empty buffers for non-neighbor pairs so
	// the collective degenerates to neighbor-only send/receives (the
	// paper's N-A2A mode).
	NeighborAllToAll
)

func (m ExchangeMode) String() string {
	switch m {
	case NoExchange:
		return "none"
	case AllToAllMode:
		return "A2A"
	case NeighborAllToAll:
		return "N-A2A"
	}
	return fmt.Sprintf("ExchangeMode(%d)", int(m))
}

// ParseExchangeMode converts the CLI spelling of a mode.
func ParseExchangeMode(s string) (ExchangeMode, error) {
	switch s {
	case "none":
		return NoExchange, nil
	case "a2a", "A2A":
		return AllToAllMode, nil
	case "na2a", "n-a2a", "N-A2A":
		return NeighborAllToAll, nil
	}
	return 0, fmt.Errorf("comm: unknown exchange mode %q", s)
}

// Direction says which way a halo exchange moves rows.
type Direction int

const (
	// Forward fills dst's halo rows (RecvIdx) with the neighbors' local
	// rows (their SendIdx) of src.
	Forward Direction = iota
	// Adjoint is Forward's exact transpose, its reverse-mode derivative:
	// halo-row gradients (gathered from src at RecvIdx) flow back to the
	// ranks that produced the values and accumulate into dst's local-row
	// gradients at SendIdx. Together the two make the consistent NMP layer
	// differentiable end-to-end (the paper's Eq. 3).
	Adjoint
)

// Exchanger executes differentiable halo exchanges under one of the three
// modes. There is one exchange, parameterised by direction and batch:
// Start packs and posts every send and receive on the transports'
// nonblocking requests, Finish waits for the receives (in ascending
// neighbor order, so the adjoint's scatter-add accumulation order — and
// hence every output bit — is independent of arrival order) and unpacks.
// Exchange is the synchronous composition Start-then-Finish; the phased
// NMP pipeline calls the halves and runs interior compute between them.
//
// Every frame is tagged by direction (TagHaloForward or TagHaloAdjoint)
// in both A2A and N-A2A, so a rank running the forward exchange against
// a peer running the adjoint fails loudly on the tag instead of
// scattering a gradient frame into activations.
//
// src and dst are stacks of batch equal row blocks (batch 1 is the plain
// exchange). Each neighbor receives a single frame carrying all batch
// samples' shared rows packed sample-major, so the message count — and
// hence the latency cost — is batch-invariant; only the frames grow.
// Sample b moves exactly as a batch-1 exchange of its block would, bit
// for bit. Request slots and staging buffers are recycled across
// exchanges, so a steady-state exchange allocates nothing on either
// transport.
//
// Failure semantics: the exchanger adds no failure handling of its own.
// A dead peer or an expired receive deadline (Comm.SetRecvTimeout)
// surfaces inside Finish as a classified panic (ErrPeerDown/ErrTimeout)
// from the underlying Wait, which unwinds the rank goroutine to its
// runner's recover — requests left pending by the unwind are abandoned,
// never recycled, so a later exchange on a surviving endpoint cannot
// observe a stale handle.
type Exchanger struct {
	Mode ExchangeMode
	Plan *HaloPlan

	// packBuf reuses per-neighbor gather buffers across exchanges
	// (sends complete eagerly, so reuse is safe). Keyed by neighbor
	// index; resized when the column count changes.
	packBuf [][]float64
	// uniformBuf holds the padded per-destination payloads of
	// AllToAllMode. Entries are zero beyond each neighbor's (fixed)
	// payload length, and non-neighbor entries stay all-zero "dummy"
	// buffers, so reuse never leaks stale data. Rebuilt when the column
	// count (and hence the uniform width) changes.
	uniformBuf   [][]float64
	uniformWidth int

	// In-flight exchange state. sendReqs/recvReqs are the recycled
	// request slot tables: indexed by neighbor for NeighborAllToAll, by
	// rank for AllToAllMode (nil for self). nbOf maps a rank to
	// its neighbor index (-1 for dummy A2A peers), built lazily.
	sendReqs []*Request
	recvReqs []*Request
	nbOf     []int
	// pendDst and pendAdjoint carry the scatter target between Start and
	// Finish; inflight guards against mismatched Start/Finish pairs.
	// pendBatch/pendDstStride carry the row-block batching of the
	// in-flight exchange.
	pendDst       *tensor.Matrix
	pendAdjoint   bool
	pendCols      int
	pendBatch     int
	pendDstStride int
	inflight      bool
}

// NewExchanger validates the plan for the mode. AllToAllMode requires
// MaxSendCount (call FinalizePlan first).
func NewExchanger(mode ExchangeMode, plan *HaloPlan) (*Exchanger, error) {
	if len(plan.SendIdx) != len(plan.Neighbors) || len(plan.RecvIdx) != len(plan.Neighbors) {
		return nil, fmt.Errorf("comm: malformed plan: %d neighbors, %d send lists, %d recv lists",
			len(plan.Neighbors), len(plan.SendIdx), len(plan.RecvIdx))
	}
	for k := range plan.Neighbors {
		if len(plan.SendIdx[k]) != len(plan.RecvIdx[k]) {
			return nil, fmt.Errorf("comm: asymmetric plan for neighbor %d: send %d recv %d",
				plan.Neighbors[k], len(plan.SendIdx[k]), len(plan.RecvIdx[k]))
		}
	}
	if mode == AllToAllMode && plan.MaxSendCount == 0 && plan.TotalHalo() > 0 {
		return nil, fmt.Errorf("comm: AllToAllMode requires FinalizePlan")
	}
	return &Exchanger{Mode: mode, Plan: plan}, nil
}

// Exchange is the synchronous exchange: Start, then Finish.
func (e *Exchanger) Exchange(c *Comm, dir Direction, src, dst *tensor.Matrix, batch int) {
	e.Start(c, dir, src, dst, batch)
	e.Finish(c)
}

// pack gathers the rows of a listed in idx into the k-th staging buffer,
// sample-major: all of sample 0's rows, then sample 1's, each sample
// offset by stride rows in a.
func (e *Exchanger) pack(k int, a *tensor.Matrix, idx []int, cols, batch, stride int) []float64 {
	need := batch * len(idx) * cols
	if cap(e.packBuf[k]) < need {
		e.packBuf[k] = make([]float64, need)
	}
	buf := e.packBuf[k][:need]
	pos := 0
	for b := 0; b < batch; b++ {
		off := b * stride
		for _, i := range idx {
			copy(buf[pos:pos+cols], a.Row(off+i))
			pos += cols
		}
	}
	return buf
}

// unpack scatters one received buffer into the pending target matrix:
// copy in the forward direction, accumulate in the adjoint. Batched
// frames unpack sample-major, sample b landing at row offset
// b·pendDstStride.
func (e *Exchanger) unpack(buf []float64, idx []int) {
	cols := e.pendCols
	if len(buf) < e.pendBatch*len(idx)*cols {
		panic(fmt.Sprintf("comm: short halo buffer %d < %d", len(buf), e.pendBatch*len(idx)*cols))
	}
	pos := 0
	for b := 0; b < e.pendBatch; b++ {
		off := b * e.pendDstStride
		for _, i := range idx {
			seg := buf[pos : pos+cols]
			pos += cols
			dst := e.pendDst.Row(off + i)
			if e.pendAdjoint {
				for j, v := range seg {
					dst[j] += v
				}
			} else {
				copy(dst, seg)
			}
		}
	}
}

// Start puts the exchange on the wire and returns while the messages fly:
// Forward gathers SendIdx rows of src and (at Finish) writes the received
// buffers into dst at RecvIdx rows; Adjoint gathers RecvIdx rows of src and
// scatter-adds the received buffers into dst at SendIdx rows. The caller
// must not modify the gathered rows of src concurrently — sends complete
// eagerly on the shipped transports, but the contract keeps future
// transports free to defer the copy — and must leave dst's scattered rows
// alone (Forward) or not read them as final (Adjoint) until Finish. With
// NoExchange nothing moves and dst is left untouched. Every Start must be
// matched by exactly one Finish before the next exchange starts.
func (e *Exchanger) Start(c *Comm, dir Direction, a, b *tensor.Matrix, batch int) {
	if batch < 1 {
		panic(fmt.Sprintf("comm: halo exchange with batch %d", batch))
	}
	if a.Rows%batch != 0 || b.Rows%batch != 0 {
		panic(fmt.Sprintf("comm: halo exchange rows %d/%d not divisible by batch %d",
			a.Rows, b.Rows, batch))
	}
	adjoint := dir == Adjoint
	if e.inflight {
		panic("comm: halo exchange already in flight (missing Finish)")
	}
	e.inflight = true
	e.pendDst = b
	e.pendAdjoint = adjoint
	if e.Mode == NoExchange {
		return
	}
	plan := e.Plan
	cols := a.Cols
	if b.Cols != cols {
		panic(fmt.Sprintf("comm: exchange column mismatch %d vs %d", a.Cols, b.Cols))
	}
	e.pendCols = cols
	e.pendBatch = batch
	e.pendDstStride = b.Rows / batch
	srcStride := a.Rows / batch
	c.Stats.HaloExchanges++
	start := time.Now()
	defer func() { c.Stats.HaloSeconds += time.Since(start).Seconds() }()

	gatherIdx, tag := plan.SendIdx, TagHaloForward
	if adjoint {
		gatherIdx, tag = plan.RecvIdx, TagHaloAdjoint
	}
	if e.packBuf == nil {
		e.packBuf = make([][]float64, len(plan.Neighbors))
	}

	switch e.Mode {
	case NeighborAllToAll:
		// Only real neighbor payloads move: empty buffers between
		// non-neighbors skip communication entirely.
		e.sizeReqs(len(plan.Neighbors))
		for k, nb := range plan.Neighbors {
			e.sendReqs[k] = c.Isend(nb, tag, e.pack(k, a, gatherIdx[k], cols, batch, srcStride))
		}
		for k, nb := range plan.Neighbors {
			e.recvReqs[k] = c.Irecv(nb, tag)
		}

	case AllToAllMode:
		// Uniform buffers: every pair exchanges MaxSendCount*cols
		// floats, padding real payloads and sending zero "dummy"
		// buffers between non-neighbors, as the paper's standard A2A
		// configuration does. The padded staging buffers persist across
		// exchanges: each neighbor's payload length is fixed by the
		// plan, so overwriting the payload prefix leaves the zero
		// padding intact.
		width := batch * plan.MaxSendCount * cols
		size := c.Size()
		if e.uniformBuf == nil || len(e.uniformBuf) != size || e.uniformWidth != width {
			e.uniformBuf = make([][]float64, size)
			for dst := 0; dst < size; dst++ {
				if dst == c.rank {
					continue
				}
				e.uniformBuf[dst] = make([]float64, width)
			}
			e.uniformWidth = width
		}
		if len(e.nbOf) != size {
			e.nbOf = make([]int, size)
			for r := range e.nbOf {
				e.nbOf[r] = -1
			}
			for k, nb := range plan.Neighbors {
				e.nbOf[nb] = k
			}
		}
		for k, nb := range plan.Neighbors {
			copy(e.uniformBuf[nb], e.pack(k, a, gatherIdx[k], cols, batch, srcStride))
		}
		e.sizeReqs(size)
		for dst := 0; dst < size; dst++ {
			if dst == c.rank {
				e.sendReqs[dst] = nil
				continue
			}
			e.sendReqs[dst] = c.Isend(dst, tag, e.uniformBuf[dst])
		}
		for src := 0; src < size; src++ {
			if src == c.rank {
				e.recvReqs[src] = nil
				continue
			}
			e.recvReqs[src] = c.Irecv(src, tag)
		}
	}
}

// Finish waits for the in-flight exchange's receives in slot order and
// scatters them into the pending target — the same accumulation order as
// the synchronous exchange, so overlapping changes no output bit. The wall
// time spent blocked on not-yet-arrived messages accumulates into
// Stats.HaloExposedSeconds — the exposed communication cost the overlap
// pipeline exists to hide.
func (e *Exchanger) Finish(c *Comm) {
	if !e.inflight {
		panic("comm: halo Finish without a matching Start")
	}
	e.inflight = false
	if e.Mode == NoExchange {
		e.pendDst = nil
		return
	}
	plan := e.Plan
	start := time.Now()
	exposed := 0.0

	scatterIdx := plan.RecvIdx
	if e.pendAdjoint {
		scatterIdx = plan.SendIdx
	}
	for slot, req := range e.recvReqs {
		if req == nil {
			continue
		}
		e.recvReqs[slot] = nil
		w := time.Now()
		buf := req.Wait()
		exposed += time.Since(w).Seconds()
		k := slot
		if e.Mode == AllToAllMode {
			k = e.nbOf[slot]
			if k < 0 {
				continue // dummy traffic from a non-neighbor
			}
		}
		e.unpack(buf, scatterIdx[k])
	}
	for slot, req := range e.sendReqs {
		if req != nil {
			e.sendReqs[slot] = nil
			req.Wait()
		}
	}
	e.pendDst = nil
	c.Stats.HaloSeconds += time.Since(start).Seconds()
	c.Stats.HaloExposedSeconds += exposed
}

// sizeReqs sizes the recycled request slot tables.
func (e *Exchanger) sizeReqs(n int) {
	if cap(e.sendReqs) < n {
		e.sendReqs = make([]*Request, n)
		e.recvReqs = make([]*Request, n)
	}
	e.sendReqs = e.sendReqs[:n]
	e.recvReqs = e.recvReqs[:n]
}
