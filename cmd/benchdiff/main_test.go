package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const wallLine = `{"correct":true,"attempted":9,"failed":0,"metrics":{"ops_per_s":{"value":%s,"unit":"1/s"}}}`

func writeFile(t *testing.T, path, body string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestReadWall(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good")
	writeFile(t, good, "paper "+strings.Replace(wallLine, "%s", "4.5", 1)+"\n"+
		"sweep "+strings.Replace(wallLine, "%s", "27", 1)+"\n")
	wall, err := readWall(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(wall) != 2 || wall["paper"].Metrics["ops_per_s"].Value != 4.5 || wall["sweep"].Attempted != 9 {
		t.Fatalf("wall = %+v", wall)
	}
	for name, body := range map[string]string{
		"empty":     "",
		"no-json":   "paper\n",
		"truncated": "paper {\"correct\":true\n",
		"twice":     "paper " + strings.Replace(wallLine, "%s", "1", 1) + "\npaper " + strings.Replace(wallLine, "%s", "2", 1),
	} {
		path := filepath.Join(dir, name)
		writeFile(t, path, body)
		if _, err := readWall(path); err == nil {
			t.Errorf("%s: readWall accepted %q", name, body)
		}
	}
}

// The deltas compare against the newest older BENCH file that has a wall
// section: a newer or same-named file and a metrics-only file are skipped.
func TestEarlierWall(t *testing.T) {
	dir := t.TempDir()
	wallFile := func(ops string) string {
		return `{"metrics":{},"wall":{"sweep":` + strings.Replace(wallLine, "%s", ops, 1) + `}}`
	}
	writeFile(t, filepath.Join(dir, "BENCH_2026-01-01.json"), wallFile("10"))
	writeFile(t, filepath.Join(dir, "BENCH_2026-02-01.json"), wallFile("20"))
	writeFile(t, filepath.Join(dir, "BENCH_2026-03-01.json"), `{"BenchmarkX/sim-s": 1}`)
	writeFile(t, filepath.Join(dir, "BENCH_2026-05-01.json"), wallFile("50"))
	cur := filepath.Join(dir, "BENCH_2026-04-01.json")
	writeFile(t, cur, wallFile("40"))
	path, wall := earlierWall(cur)
	if filepath.Base(path) != "BENCH_2026-02-01.json" || wall["sweep"].Metrics["ops_per_s"].Value != 20 {
		t.Fatalf("earlierWall = %s %+v", path, wall)
	}
	if path, wall := earlierWall(filepath.Join(dir, "BENCH_2026-01-01.json")); path != "" || wall != nil {
		t.Fatalf("earliest file found %s %+v", path, wall)
	}
}
