package lib

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly() != 1 || (Config{TestOnly: 1}).withDefaults().Defaulted != 1 {
		t.Fatal("TestOnly")
	}
}
