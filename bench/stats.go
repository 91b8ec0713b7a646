package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// medianTime runs fn reps times and returns the median duration of one
// call. Probes use it so a single preempted call cannot set the number.
func medianTime(reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t := time.Now()
		fn()
		ds[i] = float64(time.Since(t))
	}
	return time.Duration(median(ds))
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// digest is an FNV-1a-64 accumulator over length-prefixed fields, so
// ("ab","c") and ("a","bc") hash differently.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) str(s string) {
	fmt.Fprintf(d.h, "%d:%s|", len(s), s)
}

func (d *digest) strs(ss ...string) {
	for _, s := range ss {
		d.str(s)
	}
}

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) ints(vs []int) {
	d.u64(uint64(len(vs)))
	for _, v := range vs {
		d.u64(uint64(v))
	}
}

func (d *digest) floats(vs []float64) {
	d.u64(uint64(len(vs)))
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}

func (d *digest) hex() string { return fmt.Sprintf("%016x", d.h.Sum64()) }
