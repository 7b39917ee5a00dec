package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of vs by linear interpolation
// between order statistics. It sorts vs in place and returns NaN when vs is
// empty, so a missing sample set never reads as a fast one.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	sort.Float64s(vs)
	pos := q * float64(len(vs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return vs[lo] + (vs[hi]-vs[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range vs {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}

// share returns part/whole, and 0 when nothing was counted.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// relClose reports whether got is within rel of want (absolute near zero).
func relClose(got, want, rel float64) bool {
	return math.Abs(got-want) <= rel*math.Max(1, math.Abs(want))
}

// selfCPUms returns the user+system CPU time this process has used.
func selfCPUms() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// selfPeakRSSmb returns this process's peak resident set (Linux: KiB units).
func selfPeakRSSmb() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// clockTick is the length of one /proc tick; USER_HZ is 100 on every Linux
// architecture Go supports.
const clockTickMs = 10.0

// pidCPUms returns the user+system CPU time of a live child from
// /proc/<pid>/stat. getrusage(RUSAGE_CHILDREN) only counts children that
// were already waited for, so it cannot bracket a window.
func pidCPUms(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return (utime + stime) * clockTickMs, nil
}

// pidPeakRSSmb returns a live child's peak resident set from VmHWM. The
// ru_maxrss that wait4 reports for a child is no use here: exec carries the
// forking parent's high-water mark into it, so every child would read at
// least the benchmark's own peak.
func pidPeakRSSmb(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// parseProm reads a Prometheus text exposition into name -> value.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		out[name] = v
	}
	return out, sc.Err()
}

// promDelta returns after-before for every counter, treating a name missing
// from before as 0.
func promDelta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sumSuffix adds every value whose name starts with prefix and ends with
// suffix: one counter across the per-kernel metric groups of a shard.
func sumSuffix(m map[string]float64, prefix, suffix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			s += v
		}
	}
	return s
}
