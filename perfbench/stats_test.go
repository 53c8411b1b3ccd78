package main

import (
	"math/rand"
	"testing"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := make([]float64, 99)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	if _, err := Percentile(samples, 90); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it; want a refusal")
	}
	samples = append(samples, 100)
	got, err := Percentile(samples, 90)
	if err != nil {
		t.Fatalf("p90 of 100 samples: %v", err)
	}
	if got != 90 {
		t.Fatalf("p90 of 1..100 = %v, want 90", got)
	}
	if _, err := Percentile(samples[:50], 50); err != nil {
		t.Fatalf("p50 of 50 samples: %v", err)
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Fatal("percentile of no samples: want an error")
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q3 = Quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("quartiles = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestDigestIgnoresRowOrder(t *testing.T) {
	keys := []string{
		RuleKey("{a}", "{b}", 0.5, 1),
		RuleKey("{a, c}", "{b}", 0.25, 0.5),
		RuleKey("{c}", "{d}", 0.125, 1.0/3),
	}
	want := DigestRules(keys)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		shuffled := append([]string(nil), keys...)
		rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		if got := DigestRules(shuffled); got != want {
			t.Fatalf("digest of %q = %v, want %v", shuffled, got, want)
		}
	}
	if got := DigestRules(keys[:2]); got == want {
		t.Fatal("dropping a rule left the digest unchanged")
	}
	changed := append([]string(nil), keys...)
	changed[0] = RuleKey("{a}", "{b}", 0.5, 0.9)
	if got := DigestRules(changed); got.Digest == want.Digest {
		t.Fatal("changing a confidence left the digest unchanged")
	}
	if got := RenderSide([][]string{{"a"}, {"b", "x"}}); got != "{a, b/x}" {
		t.Fatalf("RenderSide = %q", got)
	}
}
