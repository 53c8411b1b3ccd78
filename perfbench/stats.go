package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a p90 needs 100 samples, a p99 a thousand.
const minBeyond = 10

// Percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples. It refuses when fewer than minBeyond samples lie beyond the
// percentile's rank, since such a tail figure is one or two outliers.
func Percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile p%g of %d samples: undefined", p, n)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	s := sortedCopy(samples)
	return s[rank-1], nil
}

// Median is the middle sample (the mean of the two middle ones for an
// even count); 0 for no samples.
func Median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := sortedCopy(samples)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive"
// method), the rule the benchmark's spread is judged by. It needs at
// least two samples; with fewer it returns the one sample (or zeros).
func Quartiles(samples []float64) (q1, q3 float64) {
	ld := len(samples)
	if ld < 2 {
		if ld == 1 {
			return samples[0], samples[0]
		}
		return 0, 0
	}
	s := sortedCopy(samples)
	const n = 4
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// RuleKey is one rule in canonical text form: body and head rendered
// like the paper's Figure 2.b rows, measures to nine significant digits.
func RuleKey(body, head string, support, confidence float64) string {
	return body + " => " + head + " s=" + strconv.FormatFloat(support, 'g', 9, 64) +
		" c=" + strconv.FormatFloat(confidence, 'g', 9, 64)
}

// RenderSide renders one rule side as the wire protocol does: elements
// in stored order, tuple values joined by "/".
func RenderSide(els [][]string) string {
	parts := make([]string, len(els))
	for i, t := range els {
		parts[i] = strings.Join(t, "/")
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// RuleSet summarizes a mining result independently of row order: the
// rule count and a digest of the sorted canonical rule keys.
type RuleSet struct {
	Count  int
	Digest string
}

// DigestRules builds the order-independent summary of keys.
func DigestRules(keys []string) RuleSet {
	s := append([]string(nil), keys...)
	sort.Strings(s)
	h := sha256.New()
	for _, k := range s {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return RuleSet{Count: len(s), Digest: hex.EncodeToString(h.Sum(nil))[:16]}
}

func (r RuleSet) String() string { return fmt.Sprintf("%d rules #%s", r.Count, r.Digest) }
