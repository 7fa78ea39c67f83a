package main

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// liveHeap forces a garbage collection and returns the bytes it found
// reachable: the Go heap the workload keeps, read at the end of its
// measuring window while everything it built is still alive. Unlike the
// heap's instantaneous size, which saws between collections, or a peak
// sampled from it, this depends on what the program retains rather than
// on when a collection or a sampler happened to run.
func liveHeap() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}

// heapProbeWriter reads the live heap before passing on each write: as a
// journal's writer it samples the heap at every record, while the
// journaled operation's state is alive.
type heapProbeWriter struct {
	b *bench
	w io.Writer
}

func (p heapProbeWriter) Write(data []byte) (int, error) {
	p.b.probeHeap()
	return p.w.Write(data)
}

// printLOC prints the non-test line count of every internal/* and cmd/*
// package: lines of non-_test.go files that are neither blank nor
// comment-only. It is informational, a baseline for simplification work.
func printLOC() {
	var pkgs []string
	for _, pat := range []string{"internal/*", "cmd/*"} {
		m, _ := filepath.Glob(pat)
		pkgs = append(pkgs, m...)
	}
	sort.Strings(pkgs)
	total := 0
	var row []string
	for _, dir := range pkgs {
		n := countLOC(dir)
		if n == 0 {
			continue
		}
		total += n
		row = append(row, filepath.ToSlash(dir)+"="+strconv.Itoa(n))
	}
	say("loc non-test %s total=%d", strings.Join(row, " "), total)
}

func countLOC(dir string) int {
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	n := 0
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(fh)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		inBlock := false
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			switch {
			case inBlock:
				if strings.Contains(line, "*/") {
					inBlock = false
				}
			case line == "", strings.HasPrefix(line, "//"):
			case strings.HasPrefix(line, "/*"):
				inBlock = !strings.Contains(line, "*/")
			default:
				n++
			}
		}
		fh.Close()
	}
	return n
}
