package main

import (
	"syscall"
	"time"
)

type rusage struct {
	user, sys time.Duration
	maxRSSKiB int64
}

func getrusage(r *rusage) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatal(err)
	}
	r.user = time.Duration(ru.Utime.Nano())
	r.sys = time.Duration(ru.Stime.Nano())
	r.maxRSSKiB = int64(ru.Maxrss) // KiB on Linux
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru rusage
	getrusage(&ru)
	return float64(ru.maxRSSKiB) * 1024 / 1e6
}
