package main

import (
	"math/rand"
	"runtime"
	"syscall"
	"unsafe"
)

// Host-speed calibration.
//
// On a shared virtual host the CPU time of a fixed piece of work moves
// with the host's load: a neighbour on the same physical core slows every
// instruction, and CPU time, which leaves out steal, does not see that. On
// the 2-vCPU KVM guest the benchmark was built on, the same flow round took
// from 1.6 to 2.6 s of CPU time within one process, drifting over tens of
// seconds, and a fixed dense kernel between the rounds slowed and sped up
// with them. So the benchmark runs that kernel, calibrate, before and after
// every measured operation and reports the operation's CPU time scaled to
// the speed the kernel has at its reference time:
//
//	cpu_s = raw CPU seconds × calibRefS / (mean of the calibrations around it)
//
// In a 90-round trial the scaling cut the quartile spread of a round's CPU
// time from 0.32 to 0.09 of its median, and the medians of 7-round stretches
// from a range of 1.61–2.36 s to 1.99–2.09 s. Kernels of dependent loads
// over 256 KB–32 MB, map updates and allocation tracked the rounds no
// better, so the kernel is the dense one alone.
//
// calibrate is benchmark code that allocates nothing and shares no data
// with the program, so a change to the program leaves it alone and shows
// in full; only the host's speed cancels. The raw CPU times and the host
// speed are reported by the traced run (cpu.raw_s, setup.raw_s,
// host.speed).

// calibRefS is the reference time of one calibrate: about its thread CPU
// time on a lightly loaded 2.0 GHz Intel Xeon (Sapphire Rapids) KVM vCPU,
// where it took from 20 to 35 ms with the host's load.
const calibRefS = 0.020

// The kernel is calibUpdates rank-1 updates of a calibN×calibN matrix
// (320 KB), the shape of the simplex's basis-inverse update.
const (
	calibN       = 200
	calibUpdates = 800
)

// calibState is calibrate's working set, allocated once so that calibrate
// never allocates.
var calibState = func() (s struct{ m, u []float64 }) {
	rng := rand.New(rand.NewSource(1))
	s.m, s.u = make([]float64, calibN*calibN), make([]float64, calibN)
	for i := range s.m {
		s.m[i] = rng.Float64()
	}
	for i := range s.u {
		s.u[i] = rng.Float64() - 0.5
	}
	return s
}()

// calibrate runs the kernel once and returns its thread CPU time in
// seconds. The goroutine is locked to its thread so that no other
// goroutine's work is counted.
func calibrate() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	m, u := calibState.m, calibState.u
	t0 := threadCPUSeconds()
	sign := 1.0
	for r := 0; r < calibUpdates; r++ {
		for i, ui := range u {
			a := sign * ui
			row := m[i*calibN : (i+1)*calibN]
			for j, uj := range u {
				row[j] += a * uj
			}
		}
		sign = -sign // the updates cancel in pairs, so the values stay bounded
	}
	return threadCPUSeconds() - t0
}

// threadCPUSeconds is the calling thread's CPU time.
func threadCPUSeconds() float64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Nano()) / 1e9
}

// speedMeter measures operations in host-speed-scaled CPU seconds. It
// calibrates before its first operation and after each one, so every
// operation lies between two calibrations and is scaled by their mean.
// Before each calibration it collects the garbage, so every operation
// starts from the same heap.
type speedMeter struct {
	last   float64   // the latest calibration
	calibs []float64 // every calibration, in order
}

func (s *speedMeter) calibrate() float64 {
	runtime.GC()
	c := calibrate()
	s.calibs = append(s.calibs, c)
	return c
}

// measure runs op and returns its process CPU time, scaled and raw. A nil
// meter neither calibrates nor scales.
func (s *speedMeter) measure(op func() error) (scaled, raw float64, err error) {
	if s == nil {
		c0 := cpuSeconds()
		err = op()
		raw = cpuSeconds() - c0
		return raw, raw, err
	}
	if s.last == 0 {
		s.last = s.calibrate()
	}
	c0 := cpuSeconds()
	err = op()
	raw = cpuSeconds() - c0
	next := s.calibrate()
	scaled = raw * calibRefS * 2 / (s.last + next)
	s.last = next
	return scaled, raw, err
}

// speed is the host's median speed over the meter's calibrations, as a
// multiple of the reference speed.
func (s *speedMeter) speed() float64 { return calibRefS / median(s.calibs) }
