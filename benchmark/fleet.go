package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/server"
	"github.com/alvc/alvc/internal/topology"
)

// batchWorkers is the provisioning pool every fleet runs with; fixed so
// POST /v1/chains:batch does the same parallel work on any machine.
const batchWorkers = 2

// fleet is one booted control plane: an architecture behind the REST
// server on a real loopback listener, and the single keep-alive client
// that drives it. Everything the program does during a run it does in
// answer to this client (and, for storms, the in-process flush).
type fleet struct {
	cfg    alvc.TopologyConfig
	arch   *alvc.Architecture
	srv    *server.Server
	hs     *http.Server
	closed chan error
	base   string
	client *http.Client
	// moveHosts are the two servers operate_mix ping-pongs NF 0 between.
	moveHosts [2]topology.NodeID
	// sent counts the client's requests, served the ones the server's
	// handler saw: equal, or the program heard from someone else.
	sent   int
	served atomic.Int64
	// body is the response buffer, reused across requests so the client
	// side of allocs_per_op stays small and constant.
	body bytes.Buffer
}

// fleetTopology is the bench fleets' data center: every PM dual-homed
// and every ToR wired to every OPS, so each chain claims exactly one
// exclusive slice OPS (the pool holds `ops` chains) and swap, re-path
// and standby planning always have a disjoint route to find.
func fleetTopology(ops int) alvc.TopologyConfig {
	cfg := alvc.DefaultTopology()
	cfg.Racks = 4
	cfg.PMsPerRack = 2
	cfg.VMsPerPM = 2
	cfg.OPSCount = ops
	cfg.ToRUplinks = ops
	cfg.OPSChords = 0
	cfg.DualHomeFrac = 1.0
	cfg.Services = []string{"web"}
	cfg.PMCapacity = topology.Resources{CPUCores: 1 << 20, MemoryGB: 1 << 20, StorageGB: 1 << 20}
	return cfg
}

// boot stands the program up exactly as alvc-server would — tracing and
// GC as shipped — and starts serving on 127.0.0.1:0.
func boot(cfg alvc.TopologyConfig, opts ...alvc.Option) (*fleet, error) {
	arch, err := alvc.New(cfg, append([]alvc.Option{alvc.WithBatchWorkers(batchWorkers)}, opts...)...)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(arch)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &fleet{
		cfg:    cfg,
		arch:   arch,
		srv:    srv,
		closed: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   60 * time.Second,
		},
	}
	f.hs = &http.Server{ReadHeaderTimeout: 10 * time.Second,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			f.served.Add(1)
			srv.Handler().ServeHTTP(w, r)
		})}
	f.moveHosts = moveHosts(arch.Topology())
	go func() { f.closed <- f.hs.Serve(ln) }()
	return f, nil
}

// moveHosts picks the two servers operate_mix moves NF 0 between: the
// first PM, which hosts every chain's source VM, and the first other PM
// homed to the same ToRs. Between those two a chain always has a route,
// and a move re-plans a standby exactly as disjoint as the one it
// replaces, so protected_share reads the planner and not where the moves
// happened to end; a run prints the share before the first timed request
// as bench.protected_share_setup, and the two agree. On the 200-chain
// mix fleet both are 0.75: to every chain provisioned once half of the
// 300 OPSs are claimed — chains 151 to 200 — the planner gives a standby
// that shares the primary's first ToR link, and no verb of the mix
// changes a standby's disjointness.
func moveHosts(topo *topology.Topology) [2]topology.NodeID {
	pms := topo.NodeIDs(topology.KindPhysicalMachine)
	first := fmt.Sprint(topo.ToRsOfPM(pms[0]))
	for _, pm := range pms[1:] {
		if fmt.Sprint(topo.ToRsOfPM(pm)) == first {
			return [2]topology.NodeID{pms[0], pm}
		}
	}
	return [2]topology.NodeID{pms[0], pms[len(pms)-1]}
}

// close stops the server and waits for its accept loop to end.
func (f *fleet) close() error {
	f.client.CloseIdleConnections()
	err := f.hs.Close()
	if serr := <-f.closed; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// do sends one request over the keep-alive connection, reads the whole
// response into f.body and, when out is non-nil, decodes it. Any status
// outside 2xx is an error.
func (f *fleet) do(method, path string, in, out any) (status int, err error) {
	var rd io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, f.base+path, rd)
	if err != nil {
		return 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	f.sent++
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, err
	}
	f.body.Reset()
	_, err = f.body.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return resp.StatusCode, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(f.body.Bytes()))
	}
	if out != nil {
		if err := json.Unmarshal(f.body.Bytes(), out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}
