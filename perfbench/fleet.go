package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"snowboard/internal/core"
	"snowboard/internal/queue"
)

// fleetEnv is the control plane two tenants share: a fresh temporary
// artifact store, a queue registry served on loopback TCP, and a fair
// turn scheduler with one slot per tenant.
type fleetEnv struct {
	dir string
	reg *queue.Registry
	srv *queue.Server
	env core.CampaignEnv
}

// newFleetEnv builds a control plane under parent. With rtt set, every
// queue client connection reports each request's round trip to it.
func newFleetEnv(parent string, rtt *rttLog) (*fleetEnv, error) {
	dir, err := os.MkdirTemp(parent, "fleet-")
	if err != nil {
		return nil, fmt.Errorf("fleet store dir: %w", err)
	}
	reg := queue.NewRegistry(queue.Options{})
	srv, err := queue.ServeRegistry(reg, "127.0.0.1:0", queue.ServerOptions{})
	if err != nil {
		reg.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("fleet listener: %w", err)
	}
	fe := &fleetEnv{dir: dir, reg: reg, srv: srv, env: core.CampaignEnv{
		StateDir: dir,
		Registry: reg,
		Addr:     srv.Addr(),
		Turns:    core.NewTurnScheduler(fleetTenants),
	}}
	if rtt != nil {
		fe.env.Dial = rtt.dial
	}
	return fe, nil
}

// close stops the listener, closes every queue and removes the store.
func (f *fleetEnv) close() error {
	f.srv.Close()
	f.reg.Close()
	return os.RemoveAll(f.dir)
}

// submitPair submits every tenant of u at once and waits for all of them.
// Each outcome's duration runs from its own submit to its final report.
func (f *fleetEnv) submitPair(u unit, rec *recorder, parent int, trace string, submitMs *[]float64) ([]outcome, time.Duration) {
	outs := make([]outcome, len(u.Seeds))
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, seed := range u.Seeds {
		outs[i].seed = seed
		start := time.Now()
		sid := rec.start("core.StartCampaign", parent, trace)
		c, err := core.StartCampaign(fleetSpec(seed), f.env)
		if d := rec.end(sid); d > 0 && submitMs != nil {
			*submitMs = append(*submitMs, float64(d)/1e6)
		}
		if err != nil {
			outs[i].err = err
			continue
		}
		wid := rec.start("core.Campaign.Wait", parent, trace)
		wg.Add(1)
		go func(o *outcome) {
			defer wg.Done()
			o.report, o.err = c.Wait()
			o.dur = time.Since(start)
			rec.end(wid)
			if o.err == nil && o.report != nil && o.report.Distributed != nil {
				if st := c.Status(); st.Executed != int64(o.report.Distributed.Expected) {
					o.err = fmt.Errorf("campaign %s executed %d of %d jobs", c.ID, st.Executed, o.report.Distributed.Expected)
				}
			}
		}(&outs[i])
	}
	wg.Wait()
	return outs, time.Since(t0)
}

// rttLog records queue request round trips, seen from the client side of
// each TCP connection, by operation.
type rttLog struct {
	mu  sync.Mutex
	rtt map[string][]float64 // op -> milliseconds
}

func newRTTLog() *rttLog { return &rttLog{rtt: make(map[string][]float64)} }

func (l *rttLog) dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &timedConn{Conn: c, log: l}, nil
}

func (l *rttLog) add(op string, d time.Duration) {
	l.mu.Lock()
	l.rtt[op] = append(l.rtt[op], float64(d)/1e6)
	l.mu.Unlock()
}

func (l *rttLog) ms(op string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.rtt[op]...)
}

// timedConn times each request frame to the first byte of its response.
// The queue client holds its connection for one request at a time, so
// the first read after a write belongs to that write's response.
type timedConn struct {
	net.Conn
	log  *rttLog
	op   string
	sent time.Time
}

func (c *timedConn) Write(b []byte) (int, error) {
	if c.op == "" {
		c.op, c.sent = opOf(b), time.Now()
	}
	return c.Conn.Write(b)
}

func (c *timedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 && c.op != "" {
		c.log.add(c.op, time.Since(c.sent))
		c.op = ""
	}
	return n, err
}

// opOf extracts the "op" field of a request frame.
func opOf(frame []byte) string {
	const key = `"op":"`
	i := bytes.Index(frame, []byte(key))
	if i < 0 {
		return "?"
	}
	rest := frame[i+len(key):]
	if j := bytes.IndexByte(rest, '"'); j >= 0 {
		return string(rest[:j])
	}
	return "?"
}
