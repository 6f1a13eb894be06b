package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// steady is the steadiness mode: it runs one workload several times,
// untraced, each run in its own process with its own seed (1, 2, ...),
// as an external checker does, and prints each metric's median, quartiles, min/max and spread
// (interquartile range over median).
func steady(args []string) error {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	var (
		wl      = fs.String("workload", "", "workload to repeat")
		runs    = fs.Int("runs", 10, "number of runs")
		seconds = fs.Float64("seconds", 10, "--seconds of every run")
		spin    = fs.String("spin", "", "--spin of every run (serve-mix)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 2 {
		return fmt.Errorf("--runs must be at least 2")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < *runs; i++ {
		seed := int64(i + 1)
		cmdArgs := []string{"--workload", *wl, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(*seconds, 'f', -1, 64), "--trace", "0"}
		if *spin != "" {
			cmdArgs = append(cmdArgs, "--spin", *spin)
		}
		cmd := exec.Command(self, cmdArgs...)
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = io.Discard
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, seed, err)
		}
		res, err := lastResult(stdout.Bytes())
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, seed, err)
		}
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("run %d (seed %d): %d of %d operations failed", i, seed, res.Failed, res.Attempted)
		}
		var line []string
		for _, k := range sortedKeys(res.Metrics) {
			values[k] = append(values[k], res.Metrics[k].Value)
			units[k] = res.Metrics[k].Unit
			line = append(line, fmt.Sprintf("%s=%.6g", k, res.Metrics[k].Value))
		}
		fmt.Fprintf(os.Stderr, "run %d seed %d: %s\n", i, seed, strings.Join(line, " "))
	}
	summary := map[string]map[string]float64{}
	fmt.Printf("%-34s %12s %12s %12s %12s %12s %8s\n", "metric", "median", "q1", "q3", "min", "max", "spread")
	for _, k := range sortedKeys(values) {
		vs := values[k]
		q1, q2, q3, err := quartiles(vs)
		if err != nil {
			return err
		}
		s := sorted(vs)
		spread := (q3 - q1) / q2
		if q2 == 0 {
			spread = math.NaN()
		}
		summary[k] = map[string]float64{"median": q2, "q1": q1, "q3": q3, "min": s[0], "max": s[len(s)-1], "spread": spread}
		fmt.Printf("%-34s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f  %s\n", k, q2, q1, q3, s[0], s[len(s)-1], spread, units[k])
	}
	return json.NewEncoder(os.Stdout).Encode(map[string]any{"workload": *wl, "runs": *runs, "summary": summary})
}

// lastResult parses the result object on the last line of a run's
// standard output.
func lastResult(stdout []byte) (*result, error) {
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	return &res, nil
}
