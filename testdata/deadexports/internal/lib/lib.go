// Package lib declares one export of each kind the dead-export gate sorts.
package lib

// Shape is an interface the module declares.
type Shape interface{ Area() float64 }

// Square satisfies Shape and encoding.BinaryMarshaler; nothing calls either
// method.
type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

func (s Square) MarshalBinary() ([]byte, error) { return []byte{byte(s.Side)}, nil }

// Used is called from main.
func Used() Shape { return Square{Side: 2} }

// Dead has no user.
func Dead() {}

// TestOnly is used only from lib_test.go.
func TestOnly() int { return 1 }

// Listed has no user but is listed.
func Listed() {}

// Config is an option struct: one field of each kind the knob gate sorts.
type Config struct {
	Set, Flagged, Defaulted, TestOnly, Listed int
}

func (c Config) withDefaults() Config { c.Defaulted = max(c.Defaulted, 1); return c }

// start begins two goroutines: the goroutine gate's analysis test lists the
// first, and the second is planted.
func start(done chan int) {
	go drain(done)
	go func() { done <- 1 }()
}

func drain(done chan int) { <-done }
