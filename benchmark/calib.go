package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// kernelKind names one of the two reference kernels. Both are the same
// keep-alive HTTP round trip to the same reference handler; they differ
// in where the handler runs.
type kernelKind uint8

const (
	// serialKernel: the reference server is a goroutine of this process.
	// The round trip is made of what a single request is made of —
	// goroutine hand-offs, the netpoller, net/http, allocation — and the
	// hand-off rarely puts a thread to sleep. It calibrates every
	// operation the program serves on one goroutine.
	serialKernel kernelKind = iota
	// parallelKernel: the reference server is a process of its own, idle
	// between samples, so every round trip wakes a sleeping thread on
	// another vCPU and is woken by one in turn. That wake-up is what an
	// operation that fans out over worker goroutines (a batch, a storm
	// round's repair pool) pays, and on a shared VM its price moves on its
	// own: across 10 storm runs the report-to-restored p50 divided by this
	// kernel spread 2.6 % between the quartiles, divided by the in-process
	// one 9.5 %; for the single-request provision it is the other way
	// round (3.6 % against 1.0 %).
	parallelKernel
	kernelKinds
)

// kernelOf says which kernel calibrates an operation.
func kernelOf(op string) kernelKind {
	if op == opBatch || op == opStorm {
		return parallelKernel
	}
	return serialKernel
}

// refNominalNs is what one sample of each kernel took, as a median, on
// the quiet machine the benchmark was first recorded on. Every
// time-valued end-to-end metric is reported as
//
//	raw * refNominalNs / median(kernel ns around the operation)
//
// so a run on a slower, busier or throttled machine reads what the
// recording machine would have measured. The constants, the kernels and
// the op counts must not change in a PR that claims a gain.
var refNominalNs = [kernelKinds]float64{serialKernel: 80e3, parallelKernel: 200e3}

// refServerEnv, when set, turns the process into the parallel kernel's
// reference server (see refServerMain).
const refServerEnv = "ALVC_BENCH_REFSERVER"

// refHandler is the work both reference servers do per request — the
// kind of work the control plane does: 400 updates into a 256-key map,
// the values copied to a fresh 256-slot slice, the slice sorted; three
// times over.
func refHandler() http.Handler {
	m := make(map[int]int, 256)
	sink := 0
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for rep := 0; rep < 3; rep++ {
			x := uint32(12345)
			for i := 0; i < 400; i++ {
				x = x*1664525 + 1013904223
				m[int(x>>24)] = int(x >> 8)
			}
			buf := make([]int, 256)
			for i := range buf {
				buf[i] = m[i]
			}
			sort.Ints(buf)
			sink += buf[128]
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"status":"ok","pad":"0123456789012345678901234567890123456789"}`))
	})
}

// refServerMain is the child process: it serves refHandler on a
// loopback port of its own, prints the address, and exits when its
// standard input closes — which it does when the parent closes it or
// dies.
func refServerMain() int {
	runtime.GOMAXPROCS(2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: reference server: %v\n", err)
		return 1
	}
	hs := &http.Server{ReadHeaderTimeout: 10 * time.Second, Handler: refHandler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	fmt.Println(ln.Addr().String())
	_, _ = io.Copy(io.Discard, os.Stdin) // returns at EOF: the parent is done
	_ = hs.Close()
	<-served
	return 0
}

// refKernel is the calibration yardstick: the two reference servers and
// one keep-alive client for each. Neither server holds anything of the
// control plane.
type refKernel struct {
	hs      *http.Server
	closed  chan error
	child   *exec.Cmd
	childIn io.WriteCloser
	clients [kernelKinds]*http.Client
	urls    [kernelKinds]string
	body    bytes.Buffer
	samples [kernelKinds][]float64
	// err is the first failed round trip; a run with one is void.
	err error
}

// newRefKernel starts both reference servers. capacity is how many
// samples of a kind a phase may take: the series are sized up front so
// that sampling never allocates for them.
func newRefKernel(capacity int) (*refKernel, error) {
	k := &refKernel{closed: make(chan error, 1)}
	for kind := range k.clients {
		k.clients[kind] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
		k.samples[kind] = make([]float64, 0, capacity)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	k.urls[serialKernel] = "http://" + ln.Addr().String() + "/ref"
	k.hs = &http.Server{ReadHeaderTimeout: 10 * time.Second, Handler: refHandler()}
	go func() { k.closed <- k.hs.Serve(ln) }()

	if err := k.startChild(); err != nil {
		_ = k.close()
		return nil, fmt.Errorf("reference server process: %w", err)
	}
	return k, nil
}

// startChild runs this executable once more as the parallel kernel's
// reference server and reads the address it prints.
func (k *refKernel) startChild() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), refServerEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	k.child, k.childIn = cmd, in
	addr, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		return fmt.Errorf("no address: %w", err)
	}
	k.urls[parallelKernel] = "http://" + strings.TrimSpace(addr) + "/ref"
	return nil
}

// close stops both reference servers and waits for each to end.
func (k *refKernel) close() error {
	for _, c := range k.clients {
		c.CloseIdleConnections()
	}
	err := k.hs.Close()
	if serr := <-k.closed; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if k.child != nil {
		if cerr := k.childIn.Close(); err == nil {
			err = cerr
		}
		if werr := k.child.Wait(); err == nil {
			err = werr
		}
	}
	return err
}

// sample takes one sample of the kernel: two round trips back to back,
// of which the second counts. The first finds the kernel's code and data
// wherever the operation before it left them — evicted after a 40 ms
// batch, resident after a 0.1 ms delete — and so reads the program; the
// second finds them in cache either way and reads the machine.
func (k *refKernel) sample(kind kernelKind) {
	var ns time.Duration
	for trip := 0; trip < 2; trip++ {
		start := time.Now()
		resp, err := k.clients[kind].Get(k.urls[kind])
		if err == nil {
			k.body.Reset()
			_, err = k.body.ReadFrom(resp.Body)
			if cerr := resp.Body.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil && k.err == nil {
			k.err = err
		}
		ns = time.Since(start)
	}
	k.samples[kind] = append(k.samples[kind], float64(ns))
}

// drain returns the calibration multiplier of all the samples of one
// kind taken so far — what set-up, one long operation, is calibrated
// by — and forgets the samples of every kind.
func (k *refKernel) drain(kind kernelKind) float64 {
	medianNs := quantile(k.samples[kind], 0.5)
	for i := range k.samples {
		k.samples[i] = k.samples[i][:0]
	}
	if medianNs <= 0 {
		return 1
	}
	return refNominalNs[kind] / medianNs
}

// kernelWindow is how many kernel samples, centred on an operation,
// calibrate it.
const kernelWindow = 31

// localFactors returns, per kernel sample of the kind, the calibration
// multiplier of the kernelWindow samples around it. The machine this
// runs on switches, for seconds at a time, between a fast and a slow
// mode some 40 % apart; a run-wide median of a two-peaked sample jumps
// from one peak to the other with the share of the run spent in each,
// and takes every metric with it. A local window sits inside one mode,
// so each operation is measured against the speed the machine had when
// it ran.
func (k *refKernel) localFactors(kind kernelKind) []float64 {
	s := k.samples[kind]
	out := make([]float64, len(s))
	for i := range out {
		lo := max(0, min(i-kernelWindow/2, len(s)-kernelWindow))
		out[i] = refNominalNs[kind] / quantile(s[lo:min(len(s), lo+kernelWindow)], 0.5)
	}
	return out
}

// quantile is the p-quantile of the values, interpolated the way
// Python's statistics.quantiles does by default (the method the driver
// judges spreads with); the median when p is 0.5. 0 when there are none.
func quantile(values []float64, p float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := slices.Clone(values)
	slices.Sort(s)
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	lo := int(math.Floor(pos))
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
