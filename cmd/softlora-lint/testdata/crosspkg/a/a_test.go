package a

import "testing"

// The test file puts a's test variant into a -tests load: softlora-lint
// analyzes a's files a second time, and must find the same two chains.
func TestRoots(t *testing.T) {
	_ = Verdict()
	_ = Fill(1)
}
