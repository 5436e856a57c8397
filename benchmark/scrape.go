package main

import (
	"strconv"
	"strings"
)

// exposition is one parsed Prometheus text scrape: series text
// (`name{labels}`) → value.
type exposition map[string]float64

// parseExposition reads the text format as far as the benchmark needs
// it: comment lines are skipped, each sample line is split at its last
// space. Lines that do not parse are ignored — the server's own smoke
// test validates the syntax; this reader only has to find numbers.
func parseExposition(text string) exposition {
	e := make(exposition)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		e[line[:i]] = v
	}
	return e
}

// sum adds every series of a family whose label set contains all the
// given `name="value"` fragments. ok is false when no series matched:
// the server omits empty families by design, so an absent family is
// reported absent, never as an error.
func (e exposition) sum(family string, labels ...string) (total float64, ok bool) {
series:
	for s, v := range e {
		name, lbl, _ := strings.Cut(s, "{")
		if name != family {
			continue
		}
		for _, want := range labels {
			if !strings.Contains(lbl, want) {
				continue series
			}
		}
		total += v
		ok = true
	}
	return total, ok
}

// delta is the growth of a counter family between two scrapes. A family
// missing from the first scrape counts from zero; one missing from the
// second is absent.
func delta(before, after exposition, family string, labels ...string) (float64, bool) {
	a, ok := after.sum(family, labels...)
	if !ok {
		return 0, false
	}
	b, _ := before.sum(family, labels...)
	return a - b, true
}
