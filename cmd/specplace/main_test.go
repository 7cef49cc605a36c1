package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

func TestRunDefaultPlan(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-fleet", "20", "-demand", "0.4"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"logical clusters", "proportional", "pack-to-full", "spread-evenly", "satisfied"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunWithPowerCap(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-fleet", "15", "-demand", "0", "-cap-watts", "3000", "-power-off"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "under a 3000 W cap") {
		t.Errorf("cap plan missing:\n%s", out.String())
	}
}

func TestRunEmptyYearRange(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-from", "1999", "-to", "2000"}, &out, &errBuf); err == nil {
		t.Error("empty range accepted")
	}
}

// TestSampleSeed pins the fleet-selection fix: the default seeded
// sample is deterministic but differs from the legacy take-first-n
// prefix, which stays reachable at -sample-seed 0.
func TestSampleSeed(t *testing.T) {
	runOut := func(args ...string) string {
		t.Helper()
		var out, errBuf bytes.Buffer
		if err := run(append([]string{"-fleet", "10", "-demand", "0.4"}, args...), &out, &errBuf); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	def := runOut()
	if def != runOut() {
		t.Error("default sample not deterministic")
	}
	if def != runOut("-sample-seed", "1") {
		t.Error("default differs from -sample-seed 1")
	}
	legacy := runOut("-sample-seed", "0")
	if legacy == def {
		t.Error("seeded sample identical to legacy prefix — sampling is not happening")
	}
	if legacy != runOut("-sample-seed", "0") {
		t.Error("legacy prefix not deterministic")
	}
	if runOut("-sample-seed", "7") == def {
		t.Error("different sample seeds selected the same fleet")
	}
}

// TestOptimizeDigestWorkerInvariant is the golden smoke test for the
// composition search: the full report must be byte-identical at 1, 2,
// and 8 workers.
func TestOptimizeDigestWorkerInvariant(t *testing.T) {
	var first string
	for _, workers := range []string{"1", "2", "8"} {
		var out, errBuf bytes.Buffer
		err := run([]string{
			"-optimize", "-models", "4", "-max-per-model", "5",
			"-opt-days", "2", "-opt-step", "300", "-objective", "cost",
			"-workers", workers,
		}, &out, &errBuf)
		if err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		sum := sha256.Sum256(out.Bytes())
		digest := hex.EncodeToString(sum[:])
		if first == "" {
			first = digest
			for _, want := range []string{"composition search", "exhaustive", "pack+off", "optimum:", "USD"} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("report missing %q:\n%s", want, out.String())
				}
			}
		} else if digest != first {
			t.Fatalf("workers=%s digest %s != workers=1 digest %s", workers, digest, first)
		}
	}
}

// TestOptimizeDefaultFlags: the bare -optimize invocation must find a
// feasible composition — the placement-mode -demand default would put
// the trace's spiky peak past the largest composition's capacity.
func TestOptimizeDefaultFlags(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-optimize"}, &out, &errBuf); err != nil {
		t.Fatalf("specplace -optimize: %v\n%s", err, errBuf.String())
	}
	if !strings.Contains(out.String(), "optimum:") {
		t.Fatalf("report has no optimum:\n%s", out.String())
	}
}

// TestOptimizeCarbonAware covers the time-varying flags: intensity
// shapes, the region list, and embodied amortization, all worker-
// invariant on the report digest.
func TestOptimizeCarbonAware(t *testing.T) {
	base := []string{
		"-optimize", "-models", "4", "-max-per-model", "4",
		"-opt-days", "2", "-opt-step", "300", "-objective", "carbon",
	}
	runOut := func(args ...string) string {
		t.Helper()
		var out, errBuf bytes.Buffer
		if err := run(append(append([]string{}, base...), args...), &out, &errBuf); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}

	var first string
	for _, workers := range []string{"1", "2", "8"} {
		s := runOut("-intensity", "duck", "-rate-bins", "6", "-embodied", "1300", "-workers", workers)
		sum := sha256.Sum256([]byte(s))
		digest := hex.EncodeToString(sum[:])
		if first == "" {
			first = digest
			for _, want := range []string{"rates: time-varying (duck)", "demand×rate cells", "optimum:", "kgCO2"} {
				if !strings.Contains(s, want) {
					t.Errorf("report missing %q:\n%s", want, s)
				}
			}
		} else if digest != first {
			t.Fatalf("workers=%s digest differs", workers)
		}
	}

	// A constant rate must keep the static 1-D path: no fold line.
	if s := runOut(); strings.Contains(s, "rates: time-varying") {
		t.Errorf("static run reports a fold:\n%s", s)
	}

	// Regions: the report gains a region column and sites the optimum.
	s := runOut("-intensity", "diurnal",
		"-regions", "dirty:0.10:0.45:1.5, clean:0.12:0.15:1.2")
	for _, want := range []string{"region", "clean", "optimum:", " in clean"} {
		if !strings.Contains(s, want) {
			t.Errorf("region report missing %q:\n%s", want, s)
		}
	}
}

// TestOptimizeBadArgs covers optimize-mode flag validation.
func TestOptimizeBadArgs(t *testing.T) {
	cases := [][]string{
		{"-optimize", "-objective", "joules"},
		{"-optimize", "-demand", "0"},
		{"-optimize", "-demand", "1.5"},
		{"-optimize", "-models", "0"},
		{"-optimize", "-top", "-1"},
		{"-optimize", "-intensity", "diurnal"},
		{"-optimize", "-objective", "carbon", "-intensity", "/nope/missing.csv"},
		{"-optimize", "-objective", "carbon", "-intensity", "diurnal", "-intensity-step", "700"},
		{"-optimize", "-objective", "carbon", "-regions", "a:0.1:0.45"},
		{"-optimize", "-objective", "carbon", "-regions", "a:0.1:zz:1.5"},
		{"-optimize", "-objective", "carbon", "-regions", " , "},
		{"-optimize", "-objective", "carbon", "-embodied", "1300", "-lifetime-years", "0"},
		{"-optimize", "-objective", "cost", "-embodied", "1300"},
	}
	for _, args := range cases {
		var out, errBuf bytes.Buffer
		if err := run(args, &out, &errBuf); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
