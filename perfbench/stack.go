package main

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/fleet"
	"ccsdsldpc/internal/registry"
	"ccsdsldpc/internal/serve"
)

// muxNode is one in-process decode instance: a registry.Mux serving
// the given codes on a loopback listener, built from the library's
// zero-value serve.Config (what ldpcserver ships).
type muxNode struct {
	mux  *registry.Mux
	l    net.Listener
	done chan struct{}
}

func startMux(reg *registry.Registry, ids []registry.ID) (*muxNode, error) {
	mux, err := registry.NewMux(reg, ids, serve.Config{})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mux.Close()
		return nil, err
	}
	n := &muxNode{mux: mux, l: l, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = mux.ServeListener(l)
	}()
	return n, nil
}

func (n *muxNode) addr() string { return n.l.Addr().String() }

// close stops accepting, waits for the served connections (their peers
// must have closed them) and drains the pools.
func (n *muxNode) close() {
	n.l.Close()
	<-n.done
	n.mux.Close()
}

// routerNode is a fleet.Router over mux backends, answering clients on
// its own loopback listener. Apart from the backends and the codebook,
// its configuration is the zero value.
type routerNode struct {
	r    *fleet.Router
	l    net.Listener
	done chan struct{}
}

func startRouter(reg *registry.Registry, ids []registry.ID, backs []*muxNode) (*routerNode, error) {
	cb, err := registry.NewCodebook(reg, ids)
	if err != nil {
		return nil, err
	}
	bcs := make([]fleet.BackendConfig, len(backs))
	for i, b := range backs {
		bcs[i] = fleet.BackendConfig{
			Name:  fmt.Sprintf("backend%d", i),
			Addr:  b.addr(),
			Probe: fleet.SnapshotProbe(b.mux.HealthSnapshot),
		}
	}
	r, err := fleet.New(fleet.Config{Backends: bcs, Codebook: cb})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.Close()
		return nil, err
	}
	n := &routerNode{r: r, l: l, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = r.ServeListener(l)
	}()
	return n, nil
}

func (n *routerNode) addr() string { return n.l.Addr().String() }

func (n *routerNode) close() {
	n.l.Close()
	<-n.done
	n.r.Close()
}

// client is one wire-protocol connection of the load generator.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	wbuf []byte
	rbuf []byte
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 16<<10), bw: bufio.NewWriterSize(conn, 16<<10)}, nil
}

// send writes one request and flushes it onto the wire.
func (c *client) send(f *frame) error {
	var err error
	if f.v2 {
		c.wbuf, err = serve.WriteRequestTagged(c.bw, byte(f.id), f.wire, c.wbuf)
	} else {
		c.wbuf, err = serve.WriteRequest(c.bw, f.wire, c.wbuf)
	}
	if err != nil {
		return err
	}
	return c.bw.Flush()
}

// recv reads the next response; its hard decisions land in bits.
func (c *client) recv(bits *bitvec.Vector) (serve.Response, error) {
	resp, buf, err := serve.ReadResponse(c.br, bits, c.rbuf)
	c.rbuf = buf
	return resp, err
}

func (c *client) roundTrip(f *frame, bits *bitvec.Vector) (serve.Response, error) {
	if err := c.send(f); err != nil {
		return serve.Response{}, err
	}
	return c.recv(bits)
}

// wireStack is the system under test of the open-loop workloads: mux
// backends and, optionally, a router in front of them.
type wireStack struct {
	reg    *registry.Registry
	ids    []registry.ID
	built  map[registry.ID]*registry.Built
	backs  []*muxNode
	router *routerNode
}

// startWireStack builds the stack cold: every served code, the mux
// backends with all their pools (Preload, so no pool is left to build
// lazily inside the measured phase) and listeners, the router and its
// backend dials, and finally one all-zero frame per served code
// answered through the front: set-up ends at the first accepted frame.
func startWireStack(ids []registry.ID, backends int, routed bool) (*wireStack, error) {
	reg := registry.Default()
	s := &wireStack{reg: reg, ids: ids, built: map[registry.ID]*registry.Built{}}
	for _, id := range ids {
		e, _ := reg.Get(id)
		b, err := e.Build()
		if err != nil {
			return nil, err
		}
		s.built[id] = b
	}
	for i := 0; i < backends; i++ {
		n, err := startMux(reg, ids)
		if err != nil {
			s.close()
			return nil, err
		}
		s.backs = append(s.backs, n)
		if err := n.mux.Preload(); err != nil {
			s.close()
			return nil, err
		}
	}
	if routed {
		r, err := startRouter(reg, ids, s.backs)
		if err != nil {
			s.close()
			return nil, err
		}
		s.router = r
	}
	if err := s.acceptZeroFrames(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// front is the address clients connect to: the router's, or the only
// backend's.
func (s *wireStack) front() string {
	if s.router != nil {
		return s.router.addr()
	}
	return s.backs[0].addr()
}

// acceptZeroFrames sends every served code's all-zero codeword through
// the front and requires it back decoded. The all-zero word needs no
// encoder, so it can be sent before any frame is generated.
func (s *wireStack) acceptZeroFrames() error {
	c, err := dial(s.front())
	if err != nil {
		return err
	}
	defer c.conn.Close()
	for _, id := range s.ids {
		f := zeroFrame(s.reg, id, s.built[id])
		bits := bitvec.New(f.built.Code.N)
		resp, err := c.roundTrip(f, bits)
		if err != nil {
			return fmt.Errorf("set-up frame for %s: %w", codeName(s.reg, id), err)
		}
		if resp.Status != serve.StatusOK || !resp.Converged || !bits.IsZero() {
			return fmt.Errorf("set-up frame for %s: status %d converged %v", codeName(s.reg, id), resp.Status, resp.Converged)
		}
	}
	return nil
}

// close tears the stack down front to back, so each tier's listener
// finds its connections already closed by the peer. Client
// connections must be closed first.
func (s *wireStack) close() {
	if s.router != nil {
		s.router.close()
	}
	for _, b := range s.backs {
		b.close()
	}
}

// routerSnap is the router's snapshot, or the zero snapshot without one.
func (s *wireStack) routerSnap() fleet.Snapshot {
	if s.router == nil {
		return fleet.Snapshot{}
	}
	return s.router.r.Metrics().Snapshot()
}

// muxSnapshots returns every backend's mux snapshot.
func (s *wireStack) muxSnapshots() []registry.MuxSnapshot {
	out := make([]registry.MuxSnapshot, len(s.backs))
	for i, b := range s.backs {
		out[i] = b.mux.Snapshot()
	}
	return out
}

// zeroFrame is the all-zero codeword of a code at full confidence:
// v2-tagged unless the code is the registry's v1 default. Its decode
// is checked to be all zero, so it carries no codeword.
func zeroFrame(reg *registry.Registry, id registry.ID, b *registry.Built) *frame {
	wire := make([]int16, len(b.TxPositions))
	max := fixed.DefaultHighSpeedParams().Format.Max()
	for i := range wire {
		wire[i] = max
	}
	return &frame{id: id, built: b, v2: id != reg.DefaultID(), wire: wire}
}

func codeName(reg *registry.Registry, id registry.ID) string {
	if e, ok := reg.Get(id); ok {
		return e.Name
	}
	return fmt.Sprintf("id%d", id)
}

// timeSetup runs a cold set-up and returns its wall time.
func timeSetup[T any](start func() (T, error)) (T, float64, error) {
	t0 := time.Now()
	v, err := start()
	return v, time.Since(t0).Seconds(), err
}
