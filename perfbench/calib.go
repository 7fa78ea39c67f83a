package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"
)

// The host is shared: for minutes at a time other tenants slow every
// instruction a run executes (on the 2-vCPU box this benchmark was tuned
// on, the serial gadget scan took 0.5 s in quiet phases and 1.0–1.6 s in
// busy ones, with process CPU time rising with wall time, so neither CPU
// time nor longer runs remove it). The end-to-end times are therefore
// reported at a fixed host speed: after every timed interval the run takes
// a sample of a reference kernel written here, which calls no repository
// code, and each interval's wall time is scaled by
//
//	refNominalMS / median(reference samples taken within refWindow of it)
//
// A change to the program moves the interval's wall time and not the
// reference, so it shows in full; a slowdown of the whole host moves both
// and cancels. The median over a window, rather than the samples next to
// the interval alone, keeps a burst that hit one 60 ms sample but not a
// multi-second operation from scaling that operation. Each run prints its
// raw wall times and reference samples beside the scaled figures.

// The reference kernel: breadth-first search from refSources sources of a
// fixed pseudo-random digraph (refNodes nodes, out-degree refDegree), the
// same kind of branchy integer work over arrays the engines do. Its
// working set (about 400 KiB) sits in the per-core L2 cache, as theirs
// does: on the tuning box, over eight minutes in which the host's speed
// drifted 1.7×, this kernel's ratio to the serial gadget scan and to the
// unit and weighted walks varied 3–7% between 25 s windows (raw wall times
// 18–20%), better than an L1-sized or an L3-sized variant. It runs on one
// CPU, for parallel work too: a copy per CPU, run at once, tracked the
// 2-worker scan no better and its samples were noisier. The graph does not
// depend on the run's seed, so every sample is the same work.
const (
	refNodes   = 1 << 14
	refDegree  = 4
	refSources = 120
)

// refNominalMS is about the kernel's median sample time on the 2-vCPU box
// the benchmark was tuned on.
const refNominalMS = 60.0

// refKernel is the reference graph (CSR adjacency) and its BFS scratch;
// sweeps allocate nothing.
type refKernel struct {
	off, adj, dist, queue []int32
}

func newRefKernel() *refKernel {
	k := &refKernel{
		off:   make([]int32, refNodes+1),
		adj:   make([]int32, refNodes*refDegree),
		dist:  make([]int32, refNodes),
		queue: make([]int32, refNodes),
	}
	x := uint64(0x9e3779b97f4a7c15)
	for u := 0; u < refNodes; u++ {
		k.off[u+1] = int32((u + 1) * refDegree)
		for j := 0; j < refDegree; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			k.adj[u*refDegree+j] = int32(x % refNodes)
		}
	}
	return k
}

// sweep runs the BFS from refSources sources and returns the sum of all
// finite distances.
func (k *refKernel) sweep() int64 {
	var sum int64
	for s := 0; s < refSources; s++ {
		src := int32(s % refNodes)
		for i := range k.dist {
			k.dist[i] = -1
		}
		k.dist[src] = 0
		k.queue[0] = src
		head, tail := 0, 1
		for head < tail {
			u := k.queue[head]
			head++
			du := k.dist[u]
			sum += int64(du)
			for _, v := range k.adj[k.off[u]:k.off[u+1]] {
				if k.dist[v] < 0 {
					k.dist[v] = du + 1
					k.queue[tail] = v
					tail++
				}
			}
		}
	}
	return sum
}

// refWindow is how far from an interval the reference samples that scale
// it may lie: short against the minutes a host phase lasts, long enough to
// hold several samples.
const refWindow = 5 * time.Second

// interval is one timed stretch of work: when it ran and its wall time in
// ms (which may be less than t1−t0 when only part of the stretch is
// timed).
type interval struct {
	t0, t1 time.Time
	ms     float64
}

type refSample struct {
	at time.Time // the sample's midpoint
	ms float64
}

// hostClock takes reference samples and scales intervals by them.
type hostClock struct {
	kernel  *refKernel
	want    int64 // the kernel's sweep sum, fixed by the graph
	samples []refSample
	bad     int // samples whose sums differed from want
}

// newHostClock warms the kernel up and takes a first sample.
func newHostClock() *hostClock {
	c := &hostClock{kernel: newRefKernel()}
	c.want = c.kernel.sweep()
	c.sample()
	return c
}

// sample runs the kernel once and records its wall time.
func (c *hostClock) sample() {
	t0 := time.Now()
	sum := c.kernel.sweep()
	d := time.Since(t0)
	c.samples = append(c.samples, refSample{at: t0.Add(d / 2), ms: ms(d)})
	if sum != c.want {
		c.bad++
	}
}

// sampleMS returns every sample's wall time.
func (c *hostClock) sampleMS() []float64 {
	out := make([]float64, len(c.samples))
	for i, s := range c.samples {
		out[i] = s.ms
	}
	return out
}

// factor is what scales the wall time of work done from t0 to t1 to the
// nominal host speed: refNominalMS over the median of the samples within
// refWindow of the interval (0 when there is none).
func (c *hostClock) factor(t0, t1 time.Time) float64 {
	var near []float64
	for _, s := range c.samples {
		if !s.at.Before(t0.Add(-refWindow)) && !s.at.After(t1.Add(refWindow)) {
			near = append(near, s.ms)
		}
	}
	return ratio(refNominalMS, median(near))
}

// scaled returns each interval's wall time scaled to the nominal host
// speed. Call it once the samples after the intervals have been taken.
func (c *hostClock) scaled(ivs []interval) []float64 {
	out := make([]float64, len(ivs))
	for i, iv := range ivs {
		out[i] = iv.ms * c.factor(iv.t0, iv.t1)
	}
	return out
}

// A workload whose set-up is mostly system calls — fleet-scan's, which
// opens job stores and starts servers — is slowed by other things than
// the CPU reference sees: on the tuning box its set-up ran 0.6 ms in some
// runs and 2–4 ms in others while the CPU reference held steady, the extra
// all kernel time. Such a set-up is scaled per repetition instead, by a
// sample of a second reference taken right after it, which does the same
// kinds of calls through the standard library alone: across runs whose raw
// set-up varied 4×, the paired ratio varied about ±10%. (For the CPU-bound
// set-ups of the other workloads this reference tracked worse than the CPU
// one.)
const (
	sysRounds = 4
	// sysNominalMS is about a sample's time on the tuning box in a quiet
	// phase.
	sysNominalMS = 1.0
)

// sysSample runs the system-call reference once in dir and returns its
// wall time in ms: sysRounds rounds of creating a directory and a file in
// it, opening a loopback listener, starting a goroutine and waiting for
// it, and closing and removing all of it again.
func sysSample(dir string) (float64, error) {
	t0 := time.Now()
	for i := 0; i < sysRounds; i++ {
		d := filepath.Join(dir, fmt.Sprintf("sysref%d", i))
		if err := os.MkdirAll(d, 0o755); err != nil {
			return 0, err
		}
		if err := os.WriteFile(filepath.Join(d, "f"), []byte("x"), 0o644); err != nil {
			return 0, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		done := make(chan struct{})
		go func() { close(done) }()
		<-done
		ln.Close()
		if err := os.RemoveAll(d); err != nil {
			return 0, err
		}
	}
	return ms(time.Since(t0)), nil
}
