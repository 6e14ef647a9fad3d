package main

import (
	"encoding/base64"
	"math"
	"runtime"
	"sync"
	"time"
)

// Host-speed calibration. The builder's host runs at two speeds a quarter
// apart and stays at one for minutes at a time (README, "Measured
// steadiness"), so two runs of the same commit can differ by more than any
// regression bound. A run therefore times, around each of its rounds, a
// fixed kernel that uses no code of this repository — nothing a change to
// the system under test can make faster or slower — and reports its
// timing metrics at the reference speed calRef.
//
// The kernel is shaped like the served path: one unit is a relaxation
// sweep over a fixed synthetic graph (sequential edge reads, random
// cache-resident value updates, like the engine) followed by a base64
// round trip of half a megabyte (like the wire).

const (
	calVertices = 1 << 16 // 512 KB of values
	calEdges    = 1 << 20
	calPayload  = 512 << 10
	// calRef is the kernel's speed, in units per second summed over all
	// CPUs, at which timing metrics are reported: the median of the
	// builder's 2-CPU host. It only fixes the scale; what steadies the
	// numbers is dividing by the speed measured in the run.
	calRef = 270.0
	// calExponent is how much faster the served path runs when the kernel
	// runs 1 % faster. A closed loop of requests and replies on a few
	// shared vCPUs loses more than a flat-out loop does when the host
	// slows: over 280 rounds at kernel speeds from 157 to 336 the log-log
	// slope of a round's q/s against its kernel speed was 1.50 on hot-pk,
	// 1.31 on cold-pk and 1.16 on cold-wen (1.33, 1.20, 1.08 for p50). One
	// exponent for all workloads, near the middle of those.
	calExponent = 1.3
)

// speedFactor is what a stretch of work that ran while the kernel made
// speed units/s is scaled by to read as at calRef: q/s are divided by it,
// durations multiplied.
func speedFactor(speed float64) float64 { return math.Pow(speed/calRef, calExponent) }

type calKernel struct {
	dst    []uint32
	weight []uint32
	dist   []uint64
	raw    []byte
	enc    []byte
}

func newCalKernel(seed uint64) *calKernel {
	k := &calKernel{
		dst:    make([]uint32, calEdges),
		weight: make([]uint32, calEdges),
		dist:   make([]uint64, calVertices),
		raw:    make([]byte, calPayload),
		enc:    make([]byte, base64.StdEncoding.EncodedLen(calPayload)),
	}
	x := seed*0x9e3779b97f4a7c15 + 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range k.dst {
		k.dst[i] = uint32(next() % calVertices)
		k.weight[i] = uint32(next()%16) + 1
	}
	for i := range k.raw {
		k.raw[i] = byte(next())
	}
	return k
}

// unit does one fixed piece of work and returns a value that depends on
// all of it, so none of it can be optimised away.
func (k *calKernel) unit() uint64 {
	for i := range k.dist {
		k.dist[i] = uint64(i) << 8
	}
	// Edge i leaves vertex i / (calEdges / calVertices).
	const degree = calEdges / calVertices
	for i, d := range k.dst {
		if c := k.dist[i/degree] + uint64(k.weight[i]); c < k.dist[d] {
			k.dist[d] = c
		}
	}
	base64.StdEncoding.Encode(k.enc, k.raw)
	n, _ := base64.StdEncoding.Decode(k.raw, k.enc)
	return k.dist[calVertices-1] + uint64(n) + uint64(k.raw[0])
}

// calibrator owns one kernel per CPU.
type calibrator struct {
	kernels []*calKernel
	sink    uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for i := 0; i < runtime.NumCPU(); i++ {
		c.kernels = append(c.kernels, newCalKernel(uint64(i)+1))
	}
	return c
}

// speed runs the kernel on every CPU for about dur and returns units per
// second summed over CPUs.
func (c *calibrator) speed(dur time.Duration) float64 {
	rates := make([]float64, len(c.kernels))
	sums := make([]uint64, len(c.kernels))
	var wg sync.WaitGroup
	for i, k := range c.kernels {
		wg.Add(1)
		go func(i int, k *calKernel) {
			defer wg.Done()
			units := 0
			start := time.Now()
			for time.Since(start) < dur {
				sums[i] += k.unit()
				units++
			}
			rates[i] = float64(units) / time.Since(start).Seconds()
		}(i, k)
	}
	wg.Wait()
	total := 0.0
	for i, r := range rates {
		total += r
		c.sink += sums[i]
	}
	return total
}
