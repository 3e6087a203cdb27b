package lib

import "testing"

func TestLib(t *testing.T) {
	TestOnly()
	Allowed()
	_ = TestType{}
	if Recur(3) != 0 || TestConst != 1 {
		t.Fatal("unexpected")
	}
}
