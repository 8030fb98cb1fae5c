package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestVerdicts pins what the example prints: the burst that straddles the
// disjoint-window boundary is missed there, and the sliding and continuous
// detectors report the attacker's /32 at 31 s and 30 s.
func TestVerdicts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	main()
	os.Stdout = stdout
	f.Close()
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`(?m)^disjoint windows +MISSED `,
		`(?m)^sliding window +DETECTED +\(first seen at 31s\)$`,
		`(?m)^continuous \(TDBF\) +DETECTED +\(entered active set at 30s\)$`,
	} {
		if !regexp.MustCompile(want).Match(out) {
			t.Errorf("no line matches %q in:\n%s", want, out)
		}
	}
}
