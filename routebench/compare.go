package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain implements
//
//	routebench compare [-bench BENCHMARK.json] BASE.jsonl [HEAD.jsonl]
//
// Each file holds routebench stdout (result lines; other lines are
// skipped), one run per result. With one file it prints each
// end-to-end metric's median and quartile spread (as a share of the
// median) against its bound. With two it also compares medians and
// exits 1 when HEAD is worse than BASE by more than a metric's bound.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("routebench compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: routebench compare [-bench BENCHMARK.json] BASE.jsonl [HEAD.jsonl]")
		return 2
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", *benchPath, err)
		return 2
	}
	var sides [][]result
	for _, p := range fs.Args() {
		rs, err := readResults(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		sides = append(sides, rs)
	}
	worse := false
	fmt.Printf("%-20s %-6s %12s %8s %6s", "metric", "unit", "base-median", "spread", "bound")
	if len(sides) == 2 {
		fmt.Printf(" %12s %8s  verdict", "head-median", "change")
	}
	fmt.Println()
	for _, m := range spec.EndToEnd {
		base := values(sides[0], m.Name)
		bm := sample(base).median()
		q1, q3 := quartiles(base)
		fmt.Printf("%-20s %-6s %12.4f %8.3f %6.2f", m.Name, m.Unit, bm, (q3-q1)/bm, m.Bound)
		if len(sides) == 2 {
			hm := sample(values(sides[1], m.Name)).median()
			change := (hm - bm) / bm
			if m.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			if change > m.Bound {
				verdict = "WORSE"
				worse = true
			}
			fmt.Printf(" %12.4f %+7.1f%%  %s", hm, 100*(hm-bm)/bm, verdict)
		}
		fmt.Println()
	}
	for i, rs := range sides {
		bad := 0
		for _, r := range rs {
			if !r.Correct || r.Failed > 0 {
				bad++
			}
		}
		fmt.Printf("side %d: %d runs, %d incorrect or with failures\n", i, len(rs), bad)
	}
	if worse {
		return 1
	}
	return 0
}

// readResults parses every result line of a routebench output file.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, `{"correct"`) {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result lines", path)
	}
	return out, nil
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
