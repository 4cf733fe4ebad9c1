package main

import (
	"bufio"
	"errors"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the mean of xs (0 for none).
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

// tailPercentiles are the candidates a tail is read at, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest of tailPercentiles that has at least ten
// samples beyond it, the nearest-rank value there, and the sample count.
// With fewer than 20 samples no percentile qualifies and pct is 0.
func tail(xs []float64) (value, pct float64, n int) {
	n = len(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if rank >= 1 && n-rank >= 10 {
			return s[rank-1], p, n
		}
	}
	return 0, 0, n
}

// putTail stores the tail of xs under name, with its percentile and
// sample count beside it.
func putTail(out map[string]float64, name string, xs []float64) {
	v, p, n := tail(xs)
	out[name], out[name+".pct"], out[name+".n"] = v, p, float64(n)
}

// peakRSSMB reads VmHWM (peak resident set) of a process from
// /proc/<pid>/status, in MB; pid "self" is this process.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc/" + pid + "/status")
}
