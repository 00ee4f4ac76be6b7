package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// bench -compare old.json new.json judges new against old by the bounds in
// defs.go, one row per (workload, end-to-end metric). Either side may be a
// comma-separated list of files — several runs of one commit — in which case
// medians are compared and a metric whose runs on the old side spread wider
// than its bound is reported as unresolved rather than unchanged.

const (
	verdictSame       = "same"
	verdictRegressed  = "regressed"
	verdictImproved   = "improved"
	verdictUnresolved = "unresolved"
)

func loadReports(list string) ([]report, error) {
	var out []report
	for _, path := range strings.Split(list, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// sameSettings reports why two runs cannot be compared, "" if they can. The
// commit is what a comparison is about, so it alone may differ.
func sameSettings(a, b report) string {
	ea, eb := a.Env, b.Env
	ea.Commit, eb.Commit = "", ""
	switch {
	case ea != eb:
		return fmt.Sprintf("environments differ: %+v vs %+v", ea, eb)
	case a.Seed != b.Seed:
		return fmt.Sprintf("seeds differ: %d vs %d", a.Seed, b.Seed)
	case a.Seconds != b.Seconds || a.Smoke != b.Smoke:
		return fmt.Sprintf("windows differ: %ds smoke=%v vs %ds smoke=%v", a.Seconds, a.Smoke, b.Seconds, b.Smoke)
	}
	return ""
}

// collect gathers one metric's values on one workload over several runs.
func collect(reps []report, workload, metric string) []float64 {
	var vals []float64
	for _, r := range reps {
		for _, res := range r.Results {
			if v, ok := res.Metrics[metric]; ok && res.Workload == workload {
				vals = append(vals, v.Value)
			}
		}
	}
	return vals
}

// spread is the distance between the quartiles of vals (between the
// extremes for fewer than four values), 0 for a single value.
func spread(vals []float64) float64 {
	s := sortedCopy(vals)
	switch n := len(s); {
	case n < 2:
		return 0
	case n < 4:
		return s[n-1] - s[0]
	default:
		q1, _, _ := percentile(s, 0.25)
		q3, _, _ := percentile(s, 0.75)
		return q3 - q1
	}
}

// judge compares one metric's runs on both sides. worse is the share of the
// old median by which the new median is worse (negative: better).
func judge(d metricDef, workload string, old, new []float64) (verdict string, worse float64) {
	if len(old) == 0 || len(new) == 0 {
		return verdictUnresolved, 0
	}
	mo, mn := median(old), median(new)
	diff := mn - mo
	if d.Better == "higher" {
		diff = -diff
	}
	worse = diff // a zero baseline (failed_share) has no share to take
	if mo != 0 {
		worse = diff / math.Abs(mo)
	}
	bound := d.Bound
	if d.Name == "dist_per_query" && exactDist[workload] {
		bound = 0 // a count over a fixed op prefix: it must repeat exactly
	}
	// Every new run better than every old run resolves a noisy metric.
	allBetter := true
	for _, n := range new {
		for _, o := range old {
			if (d.Better == "lower" && n >= o) || (d.Better == "higher" && n <= o) {
				allBetter = false
			}
		}
	}
	switch {
	case diff == 0:
		return verdictSame, 0
	case bound > 0 && spread(old) > bound*math.Abs(mo) && !allBetter:
		return verdictUnresolved, worse
	case worse > bound && math.Abs(diff) > d.AbsBound:
		return verdictRegressed, worse
	case worse < -bound && math.Abs(diff) > d.AbsBound:
		return verdictImproved, worse
	}
	return verdictSame, worse
}

func compareFiles(w io.Writer, oldList, newList string) int {
	olds, err := loadReports(oldList)
	if err == nil {
		var news []report
		if news, err = loadReports(newList); err == nil {
			return compareReports(w, olds, news)
		}
	}
	fmt.Fprintln(w, "bench:", err)
	return 2
}

func compareReports(w io.Writer, olds, news []report) int {
	for _, r := range append(append([]report(nil), olds[1:]...), news...) {
		if why := sameSettings(olds[0], r); why != "" {
			fmt.Fprintln(w, "bench: refusing to compare:", why)
			return 1
		}
	}
	fmt.Fprintf(w, "old %s (%d runs)  new %s (%d runs)\n", olds[0].Env.Commit, len(olds), news[0].Env.Commit, len(news))
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s  %s\n", "workload", "metric", "old", "new", "worse by", "verdict")
	regressed := false
	for _, wl := range workloads {
		for _, d := range endToEnd {
			old, new := collect(olds, wl.Name, d.Name), collect(news, wl.Name, d.Name)
			if len(old) == 0 && len(new) == 0 {
				continue // the metric does not apply to this workload, or it was not run
			}
			verdict, worse := judge(d, wl.Name, old, new)
			regressed = regressed || verdict == verdictRegressed
			fmt.Fprintf(w, "%-14s %-16s %14.6g %14.6g %+8.2f%%  %s\n", wl.Name, d.Name, median(old), median(new), worse*100, verdict)
		}
		od, nd := digests(olds, wl.Name), digests(news, wl.Name)
		if od != "" || nd != "" {
			verdict := verdictSame
			if od != nd {
				verdict, regressed = verdictRegressed, true
			}
			fmt.Fprintf(w, "%-14s %-16s %14.12s %14.12s %9s  %s\n", wl.Name, "answers_digest", od, nd, "", verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// digests returns the workload's answers digest over the runs: the digest if
// they agree, a marker if they do not.
func digests(reps []report, workload string) string {
	seen := ""
	for _, r := range reps {
		for _, res := range r.Results {
			if res.Workload != workload || res.AnswersDigest == "" {
				continue
			}
			if seen != "" && seen != res.AnswersDigest {
				return "(runs differ)"
			}
			seen = res.AnswersDigest
		}
	}
	return seen
}
