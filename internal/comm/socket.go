package comm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"time"
)

// Wire protocol: every message is one frame,
//
//	[ kind:1 ][ tag:int32 LE ][ count:uint64 LE ][ payload: count × 8 bytes LE ][ crc32c:4 LE ]
//
// kind 'F' carries float64 elements (math.Float64bits), kind 'I' carries
// int64 elements, and kind 'H' is the connection hello whose tag field
// holds the dialing rank. A single full-duplex stream connects each rank
// pair, so per-pair delivery order is the send order — the same ordering
// guarantee the channel fabric provides.
//
// Frame integrity: the trailer is a CRC-32C (Castagnoli) over the header
// and payload bytes, and the header is validated strictly before any
// allocation — the kind must be known, the tag in [0, maxWireTag], and
// the count within the frame budget (defaultMaxFrameElems). A
// frame failing any check is rejected with an ErrCorruptFrame-classified
// diagnostic and the stream is torn down: a corrupt or malicious frame
// can neither trigger a multi-GB allocation nor silently deliver flipped
// bits as data.
const (
	frameFloats byte = 'F'
	frameInts   byte = 'I'
	frameHello  byte = 'H'

	frameHeaderLen  = 1 + 4 + 8
	frameTrailerLen = 4

	// maxWireTag bounds the tag field of a valid frame. Application tags
	// start at TagUser (100); anything near the int32 range is garbage.
	maxWireTag = 1 << 20
	// defaultMaxFrameElems is the frame budget: the largest element count
	// a received frame header may claim before it is rejected as corrupt
	// instead of allocating payload space for it — 1<<24 elements (128 MiB
	// of payload), comfortably above any halo or gradient message while
	// keeping a forged count from allocating gigabytes.
	defaultMaxFrameElems = 1 << 24
)

// crcTable is the Castagnoli polynomial table shared by all frames
// (hardware-accelerated on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// SocketOptions configures the socket fabric.
type SocketOptions struct {
	// Network is "unix" (default) or "tcp".
	Network string
	// Dir holds the per-rank Unix socket files r<rank>.sock (Network
	// "unix").
	Dir string
	// Host and BasePort place rank r's listener at Host:BasePort+r
	// (Network "tcp").
	Host     string
	BasePort int
	// DialTimeout bounds how long a rank retries connecting to a peer's
	// listener (peers start concurrently, so early dials race the
	// listener setup). Retries back off exponentially from 1ms to 50ms
	// between attempts. Defaults to 30s.
	DialTimeout time.Duration
}

func (o SocketOptions) network() string {
	if o.Network == "" {
		return "unix"
	}
	return o.Network
}

func (o SocketOptions) addr(rank int) string {
	if o.network() == "unix" {
		return fmt.Sprintf("%s/r%d.sock", o.Dir, rank)
	}
	host := o.Host
	if host == "" {
		host = "127.0.0.1"
	}
	return fmt.Sprintf("%s:%d", host, o.BasePort+rank)
}

func (o SocketOptions) dialTimeout() time.Duration {
	if o.DialTimeout <= 0 {
		return 30 * time.Second
	}
	return o.DialTimeout
}

// peer is the stream to one remote rank. Frames it carries in are
// decoded by the endpoint's readLoop into the rank's inbox from that peer.
type peer struct {
	conn net.Conn
	rd   *bufio.Reader

	// wmu serializes writers on the stream; wbuf is the reusable frame
	// staging buffer (header + encoded payload, one Write per frame).
	wmu  sync.Mutex
	wbuf []byte

	scratch []byte // reader-owned payload byte staging

	// drained is closed when the endpoint's readLoop on this stream
	// returns: the peer's side ended (or failed), everything before it
	// read.
	drained chan struct{}
}

// SocketTransport connects size ranks through a full mesh of stream
// sockets: rank r listens at addr(r), dials every lower rank, and accepts
// connections from every higher rank. It implements Transport; whether
// the ranks are goroutines (Sockets) or OS processes (Processes) is
// recorded by the constructor for diagnostics only — the wire behaviour
// is identical.
type SocketTransport struct {
	receiver
	kind  TransportKind
	ln    net.Listener
	peers []*peer // indexed by rank; nil at the own rank, whose sends post to its own inbox

	// closed is closed by Close; the readers then discard what arrives.
	closed    chan struct{}
	closeOnce sync.Once

	// corruptBit, when >= 0, flips that bit (mod frame length) of the
	// next outbound wire frame after its CRC trailer is sealed — the
	// fault-injection hook FaultTransport uses to manufacture on-the-wire
	// corruption that the receiver's integrity check must catch. Owned by
	// the endpoint's goroutine like all other transport state.
	corruptBit int
}

// NewSocketTransport establishes this rank's endpoint of the socket
// fabric. All size ranks must call it concurrently (from goroutines or
// separate processes); it returns once every pairwise connection is up.
func NewSocketTransport(opts SocketOptions, rank, size int) (*SocketTransport, error) {
	return newSocketTransport(opts, rank, size, Sockets)
}

func newSocketTransport(opts SocketOptions, rank, size int, kind TransportKind) (*SocketTransport, error) {
	if size < 1 {
		return nil, fmt.Errorf("comm: world size must be >= 1, got %d", size)
	}
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("comm: rank %d out of range [0,%d)", rank, size)
	}
	closed := make(chan struct{})
	t := &SocketTransport{
		receiver:   receiver{rank: rank, size: size, boxes: newInboxes(size, closed)},
		kind:       kind,
		peers:      make([]*peer, size),
		closed:     closed,
		corruptBit: -1,
	}
	if size == 1 {
		return t, nil
	}

	// Listen before dialing: dial targets are strictly lower ranks, so
	// every listener a rank dials was created before that rank began
	// dialing only if all ranks listen first thing. Dials still retry to
	// cover process startup skew.
	if opts.network() == "unix" {
		os.Remove(opts.addr(rank)) // stale socket from a crashed run
	}
	ln, err := net.Listen(opts.network(), opts.addr(rank))
	if err != nil {
		return nil, fmt.Errorf("comm: rank %d listen: %w", rank, err)
	}
	t.ln = ln

	// Accept from higher ranks concurrently with dialing lower ranks;
	// with everyone following the same rule the handshake cannot cycle.
	acceptDone := make(chan error, 1)
	go func() { acceptDone <- t.acceptPeers(opts.dialTimeout()) }()
	dialErr := t.dialPeers(opts)
	if dialErr != nil {
		ln.Close() // unblocks the pending Accept
	}
	acceptErr := <-acceptDone
	if dialErr != nil || acceptErr != nil {
		ln.Close()
		t.closeConns()
		if dialErr != nil {
			return nil, dialErr
		}
		return nil, fmt.Errorf("comm: rank %d accept: %w", rank, acceptErr)
	}

	for r, p := range t.peers {
		if r != rank {
			go t.readLoop(r, p)
		}
	}
	return t, nil
}

func newPeer(conn net.Conn) *peer {
	return &peer{conn: conn, rd: bufio.NewReaderSize(conn, 1<<16), drained: make(chan struct{})}
}

// dialPeers connects to every lower rank, retrying with exponential
// backoff (1ms doubling to a 50ms cap) until the peer's listener is up or
// the dial timeout expires, and identifies itself with a hello frame. The
// overall per-peer retry budget is bounded by DialTimeout, so a peer that
// never comes up surfaces as an ErrPeerDown-classified handshake error
// instead of hanging the world.
func (t *SocketTransport) dialPeers(opts SocketOptions) error {
	for r := t.rank - 1; r >= 0; r-- {
		deadline := time.Now().Add(opts.dialTimeout())
		backoff := time.Millisecond
		var conn net.Conn
		var err error
		for {
			conn, err = net.DialTimeout(opts.network(), opts.addr(r), opts.dialTimeout())
			if err == nil || time.Now().After(deadline) {
				break
			}
			time.Sleep(backoff)
			if backoff *= 2; backoff > 50*time.Millisecond {
				backoff = 50 * time.Millisecond
			}
		}
		if err != nil {
			return fmt.Errorf("comm: rank %d dial rank %d: %w", t.rank, r, classifyIOError(err))
		}
		var hello [frameHeaderLen + frameTrailerLen]byte
		hello[0] = frameHello
		binary.LittleEndian.PutUint32(hello[1:5], uint32(t.rank))
		binary.LittleEndian.PutUint32(hello[frameHeaderLen:],
			crc32.Checksum(hello[:frameHeaderLen], crcTable))
		if _, err := conn.Write(hello[:]); err != nil {
			return fmt.Errorf("comm: rank %d hello to rank %d: %w", t.rank, r, classifyIOError(err))
		}
		t.peers[r] = newPeer(conn)
	}
	return nil
}

// acceptPeers accepts one connection from every higher rank, reading each
// dialer's hello frame to learn its rank. The listener carries a deadline
// matching the dial timeout so a peer that dies before connecting (e.g. a
// worker process killed during setup) surfaces as a handshake error
// instead of hanging the world forever.
func (t *SocketTransport) acceptPeers(timeout time.Duration) error {
	if d, ok := t.ln.(interface{ SetDeadline(time.Time) error }); ok {
		d.SetDeadline(time.Now().Add(timeout))
		defer d.SetDeadline(time.Time{})
	}
	for n := t.size - 1 - t.rank; n > 0; n-- {
		conn, err := t.ln.Accept()
		if err != nil {
			return err
		}
		var hello [frameHeaderLen + frameTrailerLen]byte
		if _, err := io.ReadFull(conn, hello[:]); err != nil {
			return fmt.Errorf("comm: rank %d hello read: %w", t.rank, err)
		}
		if hello[0] != frameHello {
			return fmt.Errorf("comm: rank %d expected hello frame, got kind %q: %w",
				t.rank, hello[0], ErrCorruptFrame)
		}
		if got, want := binary.LittleEndian.Uint32(hello[frameHeaderLen:]),
			crc32.Checksum(hello[:frameHeaderLen], crcTable); got != want {
			return fmt.Errorf("comm: rank %d hello CRC mismatch (got %08x want %08x): %w",
				t.rank, got, want, ErrCorruptFrame)
		}
		src := int(binary.LittleEndian.Uint32(hello[1:5]))
		if src <= t.rank || src >= t.size {
			return fmt.Errorf("comm: rank %d accepted invalid peer rank %d", t.rank, src)
		}
		if t.peers[src] != nil {
			return fmt.Errorf("comm: rank %d accepted duplicate connection from rank %d", t.rank, src)
		}
		t.peers[src] = newPeer(conn)
	}
	return nil
}

// readLoop decodes frames from one peer's stream into the rank's inbox
// from it. Payload slices come from the inbox's free lists, so
// steady-state traffic (fixed message sizes, as in training) allocates
// nothing. Every frame passes strict validation before its payload is
// staged: known kind, in-range tag, count within the frame budget, and a
// matching CRC-32C trailer. The stream ending at a frame boundary is the
// peer's orderly close and ends the inbox with ErrPeerClosed, as the
// channel fabric's Close does; a stream that fails otherwise (mid-frame,
// reset) ends it with ErrPeerDown, and a rejected frame with
// ErrCorruptFrame. A receive blocked on the inbox reports that error. Once
// the endpoint has closed, frames are read and discarded, so the stream
// drains to the peer's end instead of stalling on a full inbox.
func (t *SocketTransport) readLoop(src int, p *peer) {
	defer close(p.drained)
	in := &t.boxes[src]
	var hdr [frameHeaderLen]byte
	for {
		if _, err := io.ReadFull(p.rd, hdr[:]); err != nil {
			if err == io.EOF {
				in.close(ErrPeerClosed)
			} else {
				in.close(classifyIOError(err))
			}
			return
		}
		kind := hdr[0]
		tag := Tag(int32(binary.LittleEndian.Uint32(hdr[1:5])))
		count := binary.LittleEndian.Uint64(hdr[5:])

		// Header validation happens before any allocation: a forged or
		// corrupted count must not be trusted with memory.
		if kind != frameFloats && kind != frameInts {
			in.close(fmt.Errorf("comm: unknown frame kind %q from rank %d: %w", kind, src, ErrCorruptFrame))
			return
		}
		if tag < 0 || tag > maxWireTag {
			in.close(fmt.Errorf("comm: frame tag %d from rank %d outside [0,%d]: %w",
				tag, src, maxWireTag, ErrCorruptFrame))
			return
		}
		if count > defaultMaxFrameElems {
			in.close(fmt.Errorf("comm: frame count %d from rank %d exceeds budget %d: %w",
				count, src, defaultMaxFrameElems, ErrCorruptFrame))
			return
		}
		n := int(count)

		need := n*8 + frameTrailerLen
		if cap(p.scratch) < need {
			p.scratch = make([]byte, need)
		}
		buf := p.scratch[:need]
		if _, err := io.ReadFull(p.rd, buf); err != nil {
			in.close(classifyIOError(err))
			return
		}

		crc := crc32.Checksum(hdr[:], crcTable)
		crc = crc32.Update(crc, crcTable, buf[:n*8])
		if got := binary.LittleEndian.Uint32(buf[n*8:]); got != crc {
			in.close(fmt.Errorf("comm: frame CRC mismatch from rank %d (kind %q tag %d count %d: got %08x want %08x): %w",
				src, kind, tag, n, got, crc, ErrCorruptFrame))
			return
		}

		m := message{kind: kind, tag: tag}
		switch kind {
		case frameFloats:
			m.f = in.f.get(n)
			for i := range m.f {
				m.f[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
			}
		case frameInts:
			m.i = in.i.get(n)
			for i := range m.i {
				m.i[i] = int64(binary.LittleEndian.Uint64(buf[i*8:]))
			}
		}
		in.post(m)
	}
}

func (t *SocketTransport) Kind() TransportKind { return t.kind }

// closeDrainTimeout bounds how long Close waits for the peers to end their
// side of the streams.
const closeDrainTimeout = time.Second

// Close shuts the listener and half-closes every peer stream, so each
// peer's next receive from this rank, once what it sent is received,
// fails with ErrPeerClosed. The readers meanwhile discard what still
// arrives, and each stream is closed once the peer has ended its side (or
// after closeDrainTimeout): a stream closed with unread bytes is reset by
// the kernel, and the peer would read the reset as this rank's crash.
// Close is idempotent.
func (t *SocketTransport) Close() error {
	var first error
	t.closeOnce.Do(func() {
		close(t.closed)
		if t.ln != nil {
			first = t.ln.Close()
		}
		for _, p := range t.peers {
			if p == nil {
				continue
			}
			if cw, ok := p.conn.(interface{ CloseWrite() error }); ok {
				// A failed half-close leaves the peer to see the full
				// close below instead.
				_ = cw.CloseWrite()
			}
		}
		timer := time.NewTimer(closeDrainTimeout)
		defer timer.Stop()
	wait:
		for _, p := range t.peers {
			if p == nil {
				continue
			}
			select {
			case <-p.drained:
			case <-timer.C:
				break wait
			}
		}
		if err := t.closeConns(); err != nil && first == nil {
			first = err
		}
	})
	return first
}

func (t *SocketTransport) closeConns() error {
	var first error
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		if err := p.conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Send frames data onto the stream to dst (a pooled copy into the own
// inbox for dst == rank). The staging buffer is per-peer and reused, so a
// steady-state exchange pattern allocates nothing. A failed write panics
// with an ErrPeerDown-classified error.
func (t *SocketTransport) Send(dst int, tag Tag, data []float64) {
	if dst == t.rank {
		t.boxes[dst].postFloats(tag, data)
		return
	}
	p := t.peers[dst]
	p.wmu.Lock()
	defer p.wmu.Unlock()
	buf := p.stage(frameFloats, tag, len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(buf[frameHeaderLen+i*8:], math.Float64bits(v))
	}
	t.writeFrame(p, dst, buf)
}

// SendInts is Send for int64 payloads.
func (t *SocketTransport) SendInts(dst int, tag Tag, data []int64) {
	if dst == t.rank {
		t.boxes[dst].postInts(tag, data)
		return
	}
	p := t.peers[dst]
	p.wmu.Lock()
	defer p.wmu.Unlock()
	buf := p.stage(frameInts, tag, len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(buf[frameHeaderLen+i*8:], uint64(v))
	}
	t.writeFrame(p, dst, buf)
}

// stage sizes the write buffer for one frame (header + payload + CRC
// trailer) and fills its header; the caller fills the payload and hands
// the buffer to writeFrame, which seals and transmits it.
func (p *peer) stage(kind byte, tag Tag, n int) []byte {
	need := frameHeaderLen + n*8 + frameTrailerLen
	if cap(p.wbuf) < need {
		p.wbuf = make([]byte, need)
	}
	buf := p.wbuf[:need]
	buf[0] = kind
	binary.LittleEndian.PutUint32(buf[1:5], uint32(int32(tag)))
	binary.LittleEndian.PutUint64(buf[5:frameHeaderLen], uint64(n))
	return buf
}

// writeFrame seals the staged frame with its CRC-32C trailer, applies the
// fault-injection corruption hook if armed, and writes it, panicking with
// a classified error on failure.
func (t *SocketTransport) writeFrame(p *peer, dst int, buf []byte) {
	body := len(buf) - frameTrailerLen
	binary.LittleEndian.PutUint32(buf[body:], crc32.Checksum(buf[:body], crcTable))
	if t.corruptBit >= 0 {
		bit := t.corruptBit % (len(buf) * 8)
		buf[bit/8] ^= 1 << (bit % 8)
		t.corruptBit = -1
	}
	if _, err := p.conn.Write(buf); err != nil {
		panic(fmt.Errorf("comm: rank %d send to %d: %w", t.rank, dst, classifyIOError(err)))
	}
}

// corruptNextFrame arms the wire-corruption hook: the next outbound frame
// on this endpoint has the given bit (mod frame length) flipped after its
// CRC trailer is computed, so the receiving rank's integrity check must
// reject it. Fault-injection only; owned by the endpoint goroutine.
func (t *SocketTransport) corruptNextFrame(bit int) {
	if bit < 0 {
		bit = 0
	}
	t.corruptBit = bit
}

// IsendF64 is the nonblocking send. The frame is written to the stream
// (or the own inbox) before returning — the kernel's socket buffer plus
// the remote peer's dedicated reader goroutine make the write effectively
// asynchronous — so the returned request is born complete and data may be
// reused immediately.
func (t *SocketTransport) IsendF64(dst int, tag Tag, data []float64) *Request {
	t.Send(dst, tag, data)
	return t.reqs.get(nil, dst, tag)
}

// RunSockets executes fn on every rank as a goroutine, connected through
// real Unix-domain sockets in a temporary directory: the full socket wire
// protocol without the process launcher, used by the consistency and
// zero-allocation test harnesses (and usable under -race, unlike child
// processes).
func RunSockets(size int, fn func(c *Comm) error) error {
	_, err := RunSocketsCollect(size, func(c *Comm) (struct{}, error) {
		return struct{}{}, fn(c)
	})
	return err
}

// RunSocketsCollect is RunSockets with a per-rank return value, indexed
// by rank.
func RunSocketsCollect[T any](size int, fn func(c *Comm) (T, error)) ([]T, error) {
	return runSocketsWith[T](size, nil, fn)
}

// RunSocketsWith is RunSockets with a per-rank transport wrapper (the
// fault-injection hook; see RunWith).
func RunSocketsWith(size int, wrap func(Transport) Transport, fn func(c *Comm) error) error {
	_, err := runSocketsWith(size, wrap, func(c *Comm) (struct{}, error) {
		return struct{}{}, fn(c)
	})
	return err
}

func runSocketsWith[T any](size int, wrap func(Transport) Transport, fn func(c *Comm) (T, error)) ([]T, error) {
	dir, err := os.MkdirTemp("", "meshgnn-sock-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	opts := SocketOptions{Network: "unix", Dir: dir}
	return runRanks(size, func(rank int) (Transport, error) {
		t, err := NewSocketTransport(opts, rank, size)
		if err != nil {
			return nil, err
		}
		return wrapTransport(t, wrap), nil
	}, fn)
}
