package main

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// BenchmarkRun is one `goofi run` in this process, of the campaign
// definitions of the benchmark's sort-solo workload (sort16, 6,000
// experiments) and its pid-long one (the PID loop against its plant, 2,400
// experiments), both at seed 1001 on one board. Configure, setup and the
// copy of the set-up store stay outside the timer, so -benchmem's B/op and
// allocs/op are the run's own: the reference run, the boards, the hand-over
// stage, the sink and the store's write path down to the log.
//
//	go test ./cmd/goofi/ -run xxx -bench BenchmarkRun -benchmem -count 5
func BenchmarkRun(b *testing.B) {
	for _, bc := range []struct {
		name   string
		define []string
	}{
		{"sort-solo", []string{"-workload", "sort16", "-locations", "cpu", "-window", "10:1600",
			"-timeout", "100000", "-experiments", "6000", "-seed", "1001"}},
		{"pid-long", []string{"-workload", "pid-control", "-envsim", "first-order-plant",
			"-locations", "cpu,icache,dcache", "-window", "200:8000", "-timeout", "4000000",
			"-max-iterations", "1000", "-experiments", "2400", "-seed", "1001"}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			dir := b.TempDir()
			devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
			if err != nil {
				b.Fatal(err)
			}
			defer devnull.Close()
			stdout := os.Stdout
			os.Stdout = devnull
			defer func() { os.Stdout = stdout }()
			base := filepath.Join(dir, "base.db")
			if err := run([]string{"configure", "-db", base, "-target", "thor-board"}); err != nil {
				b.Fatal(err)
			}
			if err := run(append([]string{"setup", "-db", base, "-campaign", "c"}, bc.define...)); err != nil {
				b.Fatal(err)
			}
			files := map[string][]byte{}
			for _, ext := range []string{"", ".wal"} {
				if data, err := os.ReadFile(base + ext); err == nil {
					files[ext] = data
				} else if !os.IsNotExist(err) {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := filepath.Join(dir, "run"+strconv.Itoa(i)+".db")
				for ext, data := range files {
					if err := os.WriteFile(db+ext, data, 0o644); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if err := run([]string{"run", "-db", db, "-campaign", "c", "-quiet"}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
