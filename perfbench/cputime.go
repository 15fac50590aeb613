package main

import (
	"syscall"
	"time"
)

// cpuTime returns the CPU time, user plus system, the process has used so
// far. The kernel leaves out time the hypervisor gave to other guests
// (steal time), so unlike wall time it does not grow while the machine's
// host is busy elsewhere.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
