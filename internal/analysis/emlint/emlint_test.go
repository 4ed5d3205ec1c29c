package emlint

import "testing"

// TestRepoClean asserts the whole module passes every emlint discipline:
// any pool frame, cache pin, async deadline, or open stream handle that can
// leak on a return path is either fixed or carries an //emlint:owns
// annotation explaining the handoff. New code that breaks a discipline
// fails this test (and `make lint`, and CI).
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	findings, err := Check("../../..", "./...")
	if err != nil {
		t.Fatalf("emlint load: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Errorf("emlint: %d finding(s); fix the leak or annotate the acquisition with //emlint:owns", len(findings))
	}
}
