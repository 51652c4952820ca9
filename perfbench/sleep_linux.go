package main

import (
	"runtime"
	"syscall"
	"time"
)

// The runtime's timers can wake about a millisecond late, which an
// open loop timed from due times would charge to the server. The open-loop
// sender instead pins its goroutine to a thread with a 1 ns timer slack
// and sleeps with nanosleep, which wakes within microseconds.

const prSetTimerslack = 29

func preciseSleeper() {
	runtime.LockOSThread()
	syscall.Syscall6(syscall.SYS_PRCTL, prSetTimerslack, 1, 0, 0, 0, 0)
}

func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}
