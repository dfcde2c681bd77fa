package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func rusageCPU(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rusageThread is Linux's RUSAGE_THREAD, which the syscall package does
// not name: getrusage for the calling thread only.
const rusageThread = 1

// processCPU is the CPU time of every thread of the process.
func processCPU() time.Duration { return rusageCPU(syscall.RUSAGE_SELF) }

// threadCPU is the CPU time of the calling OS thread; meaningful only on
// a goroutine locked to its thread (lockGenThread).
func threadCPU() time.Duration { return rusageCPU(rusageThread) }

// prSetTimerslack is Linux's PR_SET_TIMERSLACK.
const prSetTimerslack = 29

// lockGenThread pins a generator goroutine to its OS thread, so that
// thread's CPU is the generator's own and can be subtracted from the
// process total, and drops the thread's timer slack to 1 ns so nanosleep
// wakes within tens of µs of a due time.
func lockGenThread() {
	runtime.LockOSThread()
	// Best effort: the default slack only widens lateness, which
	// gen.late_p99_ms reports.
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
}

// openLoopProcs is GOMAXPROCS while an open-loop generator runs: the
// program's two plus one the sleeping generator thread holds.  The
// generator sleeps in nanosleep, which keeps its P until the runtime
// retakes it; with only two, the program would run on one core between
// ticks.  On the 2-vCPU Linux VM the workloads were sized on, Go's own
// timers (and a timerfd read through the poller) woke the generator up to
// a millisecond late, or up to a sysmon period when both Ps were busy,
// which the open loop would report as latency.
const openLoopProcs = 3

// sleepUntil blocks the calling thread in nanosleep until t.  It never
// spins: an EINTR simply sleeps the remainder.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// schedule is an open-loop generator's clock: tick k is due period·k
// after start.
type schedule struct {
	start  time.Time
	period time.Duration
	next   int
}

func newSchedule(lead, period time.Duration) *schedule {
	return &schedule{start: time.Now().Add(lead), period: period}
}

// wait sleeps until the next tick is due.  A generator that fell behind
// gets overdue ticks back to back.
func (s *schedule) wait() {
	sleepUntil(s.start.Add(time.Duration(s.next) * s.period))
	s.next++
}

// due is tick k's due time in ns since epoch.
func (s *schedule) due(k int) int64 { return int64(s.start.Sub(epoch)) + int64(k)*int64(s.period) }

// passesNs returns the median wall time of five runs of fn, in ns.
func passesNs(fn func()) float64 {
	passes := make([]float64, 5)
	for i := range passes {
		t0 := time.Now()
		fn()
		passes[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(passes)
}

// refSink keeps the host reference loop from being optimised away.
var refSink uint64

// hostRef times a fixed pure-Go loop that calls no program code: the
// median of five passes of 2^20 xorshift steps, in ns per pass.  It is
// stored beside each run's metrics only to tell box drift from code
// change; no metric is normalised by it.
func hostRef() float64 {
	return passesNs(func() {
		x := uint64(88172645463325252)
		for i := 0; i < 1<<20; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		refSink += x
	})
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latencyWindow is the open-loop latency window: latency_p50_ms and
// latency_p90_ms are medians of per-window quantiles.
const latencyWindow = 100 * time.Millisecond

// windowed splits time-ordered samples into consecutive windows of n and
// returns the median of the windows' q-quantiles.  A stall of a shared
// machine (hypervisor steal, a noisy neighbour: 0.2–10 ms, several a
// second, 1–5% of the time on the 2-vCPU VM the workloads were sized on)
// then moves the figures of the windows it hits, not the run's; pooled
// over a run, such stalls decide every tail quantile of a
// sub-millisecond latency.
func windowed(xs []float64, n int, q float64) float64 {
	var per []float64
	for i := 0; i+n <= len(xs); i += n {
		per = append(per, quantile(append([]float64(nil), xs[i:i+n]...), q))
	}
	if len(per) == 0 {
		return quantile(append([]float64(nil), xs...), q)
	}
	return median(per)
}

// memCounters is the slice of runtime.MemStats the runtime layer reports.
type memCounters struct {
	mallocs uint64
	numGC   uint32
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{mallocs: ms.Mallocs, numGC: ms.NumGC}
}

// liveHeap collects garbage and returns the bytes still allocated.  Two
// cycles: the first only moves sync.Pool contents to the victim cache.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// phaseClock brackets a timed phase: wall time, process CPU and the
// runtime counters.
type phaseClock struct {
	wall0 time.Time
	cpu0  time.Duration
	mem0  memCounters
}

func startPhase() phaseClock {
	return phaseClock{mem0: readMem(), cpu0: processCPU(), wall0: time.Now()}
}

// phaseTotals is what one timed phase consumed.
type phaseTotals struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	gcs     uint64
}

func (p phaseClock) stop() phaseTotals {
	wall := time.Since(p.wall0)
	cpu := processCPU() - p.cpu0
	m := readMem()
	return phaseTotals{wall: wall, cpu: cpu, mallocs: m.mallocs - p.mem0.mallocs, gcs: uint64(m.numGC - p.mem0.numGC)}
}

// mix64 is the SplitMix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// reasonBits condenses a decision reason into 64 bits from its length,
// its first six bytes, its middle and its last byte: reasons come from a
// small fixed set, and a full string hash per decision would cost more
// than the rest of the digest.
func reasonBits(r string) uint64 {
	n := len(r)
	if n == 0 {
		return 0
	}
	var x uint64
	for i := 0; i < 6 && i < n; i++ {
		x = x<<8 | uint64(r[i])
	}
	return x ^ uint64(n)<<48 ^ uint64(r[n-1])<<56 ^ uint64(r[n/2])<<40
}

// decisionHash digests one decision.  A run's digest is the wrapping sum
// of its decisions' hashes, so it does not depend on the order in which
// nodes deliver them, and one changed field changes the sum.
func decisionHash(terminal, seq uint64, handover, scored, executed, pingPong, failed bool, score float64, reason string) uint64 {
	var flags uint64
	if handover {
		flags |= 1
	}
	if scored {
		flags |= 2
	}
	if executed {
		flags |= 4
	}
	if pingPong {
		flags |= 8
	}
	if failed {
		flags |= 16
	}
	h := mix64(terminal*0x9e3779b97f4a7c15 ^ seq)
	h = mix64(h ^ flags ^ reasonBits(reason))
	return mix64(h ^ math.Float64bits(score))
}

// digest is an order-independent sum of decision hashes.
type digest struct {
	sum uint64
	n   uint64
}

func (d *digest) add(h uint64) {
	d.sum += h
	d.n++
}

func (d *digest) merge(o digest) {
	d.sum += o.sum
	d.n += o.n
}
