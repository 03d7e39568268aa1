// Command evalbench regenerates the paper's evaluation tables and figures
// (see DESIGN.md for the per-experiment index).
//
// Usage:
//
//	evalbench -run all                 # everything, medium scale
//	evalbench -run F9,T4 -scale small  # selected experiments, fast
//	evalbench -list                    # show available experiment ids
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"opprentice/internal/experiments"
	"opprentice/internal/kpigen"
)

func main() {
	var (
		run   = flag.String("run", "", "comma-separated experiment ids, or 'all'")
		list  = flag.Bool("list", false, "list available experiments")
		scale = flag.String("scale", "medium", "dataset scale: small, medium, full")
		seed  = flag.Int64("seed", 1, "random seed")
		trees = flag.Int("trees", 60, "random forest size")
		out   = flag.String("o", "", "write output to file instead of stdout")
		html  = flag.String("html", "", "also write a self-contained HTML report to this file")
	)
	flag.Parse()

	if *list {
		for _, m := range experiments.Registry() {
			fmt.Printf("%-8s %s\n", m.ID, m.Title)
		}
		return
	}
	if *run == "" {
		flag.Usage()
		os.Exit(2)
	}
	opts := experiments.Options{Seed: *seed, Trees: *trees}
	switch strings.ToLower(*scale) {
	case "small":
		opts.Scale = kpigen.Small
	case "medium":
		opts.Scale = kpigen.Medium
	case "full":
		opts.Scale = kpigen.Full
	default:
		fmt.Fprintf(os.Stderr, "evalbench: unknown scale %q\n", *scale)
		os.Exit(2)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "evalbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	var ids []string
	if strings.EqualFold(*run, "all") {
		for _, m := range experiments.Registry() {
			ids = append(ids, m.ID)
		}
	} else {
		ids = strings.Split(*run, ",")
	}
	var allTables []*experiments.Table
	for _, id := range ids {
		m, ok := experiments.Find(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "evalbench: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		tables, err := m.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "evalbench: %s: %v\n", m.ID, err)
			os.Exit(1)
		}
		allTables = append(allTables, tables...)
		for _, t := range tables {
			if _, err := t.WriteTo(w); err != nil {
				fmt.Fprintln(os.Stderr, "evalbench:", err)
				os.Exit(1)
			}
		}
		fmt.Fprintf(w, "[%s completed in %v]\n\n", m.ID, time.Since(start).Round(time.Millisecond))
	}
	if *html != "" {
		f, err := os.Create(*html)
		if err != nil {
			fmt.Fprintln(os.Stderr, "evalbench:", err)
			os.Exit(1)
		}
		title := fmt.Sprintf("Opprentice reproduction — %s scale, seed %d", *scale, *seed)
		if err := writeHTML(f, title, allTables); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "evalbench:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "evalbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "evalbench: HTML report written to %s\n", *html)
	}
}
