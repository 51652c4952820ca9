package main

import (
	"runtime"
	"syscall"
	"unsafe"
)

// On a 2-vCPU virtual machine of a shared host, the server's CPU time per
// op moved by 10-40% (quartile distance over the median of seven to ten
// runs) between runs of the same code minutes apart, with how busy the
// host's other guests kept it. A served op is mostly thread wake-ups,
// system calls and the exits to the hypervisor they cause, and their CPU
// cost moves with the host's load. calibrate measures that cost with a
// fixed kernel, so the CPU time per op can be scaled to a reference host
// (see refWakeNS). On that machine the calibration moved with the
// server's CPU time per op (correlation 0.8-0.98 across runs on every
// workload): by about as much on the in-memory workloads and by about
// half as much on the durable one, whose fsyncs add exits of their own.
// A chain of memory reads, tried first, moved a third as much. It runs
// at round boundaries of the closed loop, when no request is
// outstanding, so the server does not slow it.

// calibTrips is the number of round trips one calibration makes.
const calibTrips = 200

const clockThreadCPUTimeID = 3

// threadCPUNS is the calling thread's CPU time in nanoseconds: time the
// thread was preempted, stolen by the hypervisor or asleep does not count.
func threadCPUNS() int64 {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// calibrate returns the CPU time, in nanoseconds, of one wake-up round
// trip between two threads: two goroutines, each locked to its own
// thread, pass a token back and forth over unbuffered channels, so every
// pass puts one thread to sleep and wakes the other. It is the CPU time
// of both threads, summed.
func calibrate() float64 {
	ping, pong := make(chan struct{}), make(chan struct{})
	peer := make(chan int64)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		t := threadCPUNS()
		for i := 0; i < calibTrips; i++ {
			pong <- <-ping
		}
		peer <- threadCPUNS() - t
	}()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t := threadCPUNS()
	for i := 0; i < calibTrips; i++ {
		ping <- struct{}{}
		<-pong
	}
	mine := threadCPUNS() - t
	return float64(mine+<-peer) / calibTrips
}
