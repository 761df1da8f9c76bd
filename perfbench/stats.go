package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// supported reports whether n samples leave at least ten beyond the
// q-quantile, the least a reported percentile may rest on.
func supported(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// memSnap is the runtime's allocation and collector state at one point,
// with the process's CPU time and the host's stolen CPU time.
type memSnap struct {
	totalAlloc, mallocs uint64
	numGC               uint32
	gcCPU, totalCPU     float64 // seconds, from runtime/metrics
	procCPU             time.Duration
	steal, jiffies      float64 // /proc/stat, all CPUs
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func snapMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	metrics.Read(cpuSamples)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	steal, jiffies := hostCPU()
	return memSnap{
		totalAlloc: m.TotalAlloc, mallocs: m.Mallocs, numGC: m.NumGC,
		gcCPU: cpuSamples[0].Value.Float64(), totalCPU: cpuSamples[1].Value.Float64(),
		procCPU: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		steal:   steal, jiffies: jiffies,
	}
}

// hostCPU reads the steal and total jiffies of all CPUs from /proc/stat:
// time the hypervisor gave the machine's virtual CPUs to someone else.
func hostCPU() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// memDelta is what a phase of ops allocated, collected and spent, per op.
type memDelta struct {
	allocMBPerOp, mallocsPerOp, gcPerOp, gcCPUFraction float64
	cpuMsPerOp, stealShare                             float64
}

func memSince(before memSnap, ops int) memDelta {
	after := snapMem()
	n := float64(ops)
	d := memDelta{
		allocMBPerOp: float64(after.totalAlloc-before.totalAlloc) / (1 << 20) / n,
		mallocsPerOp: float64(after.mallocs-before.mallocs) / n,
		gcPerOp:      float64(after.numGC-before.numGC) / n,
		cpuMsPerOp:   ms(after.procCPU-before.procCPU) / n,
	}
	if j := after.jiffies - before.jiffies; j > 0 {
		d.stealShare = (after.steal - before.steal) / j
	}
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		d.gcCPUFraction = (after.gcCPU - before.gcCPU) / cpu
	}
	return d
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files of the tree the
// benchmark was built from, so a run is tied to its code even when the
// checkout is not a git repository. Hidden directories are skipped.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
